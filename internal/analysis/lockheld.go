package analysis

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// Lockheld builds the *Locked call-discipline rule. The project convention:
// a function whose name ends in "Locked" requires its receiver's mutex to
// be held by the caller. The rule verifies every call site satisfies one of
//
//   - the caller is itself a *Locked method on the same receiver value, or
//   - a mutex field of the callee's receiver was locked on the (straight-
//     line) path to the call and not yet unlocked.
//
// It is defer-unlock aware: `defer r.mu.Unlock()` releases at return, not
// before the call, so it never invalidates a lock for the statements that
// follow; an inline `r.mu.Unlock()` does. Control flow is approximated by
// source order — Lock anywhere textually before the call and not textually
// unlocked counts — which is exact for the lock-then-call shapes this
// codebase uses and errs toward silence, never toward noise, elsewhere.
func Lockheld() *Rule {
	r := &Rule{
		Name: "lockheld",
		Doc:  "*Locked functions are only called with the receiver's mutex held",
	}
	r.Run = func(p *Pass) {
		for _, f := range p.Pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkLockheldFunc(p, fd)
			}
		}
	}
	return r
}

func checkLockheldFunc(p *Pass, fd *ast.FuncDecl) {
	callerLocked := strings.HasSuffix(fd.Name.Name, "Locked")
	callerRecv := ""
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		callerRecv = fd.Recv.List[0].Names[0].Name
	}

	held := make(map[string]bool) // rendered mutex expr, e.g. "b.mu"
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// A deferred Unlock releases at function exit; it neither holds
			// nor releases anything for the statements in between. A deferred
			// Lock would be nonsense; skip the whole subtree.
			return false
		case *ast.FuncLit:
			// A closure body runs at some other time; its lock operations do
			// not extend the enclosing function's held set. *Locked calls
			// inside it are checked against locks taken inside it only.
			checkLockheldLit(p, n, held)
			return false
		case *ast.CallExpr:
			lockheldCall(p, n, callerLocked, callerRecv, held)
		}
		return true
	})
}

// checkLockheldLit checks a function literal's body with the locks held at
// its creation point visible (a literal created under the lock and run
// synchronously is the common worker-closure shape; treating the
// environment as held errs toward silence).
func checkLockheldLit(p *Pass, lit *ast.FuncLit, outer map[string]bool) {
	held := make(map[string]bool, len(outer))
	for k := range outer {
		held[k] = true
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			return false
		case *ast.FuncLit:
			if n != lit {
				checkLockheldLit(p, n, held)
				return false
			}
		case *ast.CallExpr:
			lockheldCall(p, n, false, "", held)
		}
		return true
	})
}

// lockheldCall processes one call: mutex acquire/release bookkeeping, and
// the *Locked discipline check.
func lockheldCall(p *Pass, call *ast.CallExpr, callerLocked bool, callerRecv string, held map[string]bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		if id, ok := call.Fun.(*ast.Ident); ok && strings.HasSuffix(id.Name, "Locked") && id.Name != "Locked" {
			if !callerLocked && len(held) == 0 {
				p.Reportf(call.Pos(), "%s is only safe with the lock held: lock the mutex first or call from a *Locked function", id.Name)
			}
		}
		return
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "RLock":
		if isMutexExpr(p, sel.X) {
			held[render(p.Pkg.Fset, sel.X)] = true
		}
		return
	case "Unlock", "RUnlock":
		if isMutexExpr(p, sel.X) {
			delete(held, render(p.Pkg.Fset, sel.X))
		}
		return
	}
	if !strings.HasSuffix(name, "Locked") || name == "Locked" {
		return
	}
	recv := render(p.Pkg.Fset, sel.X)
	if callerLocked && recv == callerRecv {
		return // *Locked method calling a sibling on the same receiver
	}
	for h := range held {
		if strings.HasPrefix(h, recv+".") {
			return // a mutex field of the receiver is held
		}
	}
	p.Reportf(call.Pos(), "%s.%s requires %s's mutex held: lock a mutex field of %s on the path to this call or call from a *Locked method on it", recv, name, recv, recv)
}

// isMutexExpr reports whether expr plausibly denotes a mutex. With type
// information it demands sync.Mutex/sync.RWMutex (possibly behind
// pointers); without, any Lock/Unlock receiver is assumed to be one —
// overapproximating held locks errs toward silence.
func isMutexExpr(p *Pass, expr ast.Expr) bool {
	if p.Pkg.Info == nil {
		return true
	}
	tv, ok := p.Pkg.Info.Types[expr]
	if !ok || tv.Type == nil {
		return true
	}
	t := tv.Type
	for {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return true
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return true
	}
	if obj.Pkg().Path() == "sync" {
		return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
	}
	// A project type embedding or wrapping a mutex still synchronizes;
	// accept it (the rule only uses this to admit locks, never to flag).
	return true
}

// render prints an expression compactly ("b.mu", "l.coPeer").
func render(fset *token.FileSet, expr ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, expr); err != nil {
		return ""
	}
	return buf.String()
}
