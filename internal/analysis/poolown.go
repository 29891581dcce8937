package analysis

import (
	"go/ast"
)

// PoolSpec names one pooled resource: the package-local getter that draws
// from the pool and the putter that recycles into it.
type PoolSpec struct {
	Get string
	Put string
}

// PoolownConfig configures the pooled-buffer ownership rule for one or
// more packages.
type PoolownConfig struct {
	// PkgSuffixes selects the packages the rule applies to by import-path
	// suffix.
	PkgSuffixes []string
	// Pools lists the get/put pairs of the package's pools.
	Pools []PoolSpec
	// ExtraGets lists additional functions or methods whose results are
	// pool-owned (e.g. a decoder that returns a pooled envelope).
	ExtraGets []string
}

// Poolown builds the pooled-value ownership rule. Pools recycle buffers and
// envelopes across the wire path under a strict ownership transfer (the
// transport.Handler contract): once a value is Put — or handed to a party
// that will Put it — the giver must not touch it again, and a pooled value
// must never outlive its owner's frame through a field, a global or a
// goroutine the function leaves behind. The rule checks, per function:
//
//   - use-after-put: a variable passed to a pool's Put is referenced again
//     by a later statement of the same block without being rebound first;
//   - retention: a variable bound to a pool Get (directly or through any
//     expression containing the Get call) is assigned into a field, global
//     or composite element, or captured by a `go` statement's closure.
//
// Straight-line per-block analysis keeps it exact for the linear
// get-use-put shapes of the hot paths and silent for branchy recycling
// (puts on distinct branches never poison each other).
func Poolown(cfg PoolownConfig) *Rule {
	gets := make(map[string]bool)
	puts := make(map[string]bool)
	for _, pl := range cfg.Pools {
		gets[pl.Get] = true
		puts[pl.Put] = true
	}
	for _, g := range cfg.ExtraGets {
		gets[g] = true
	}
	isGet := func(call *ast.CallExpr) bool { return gets[calleeName(call)] }
	isPut := func(call *ast.CallExpr) (string, bool) {
		name := calleeName(call)
		return name, puts[name]
	}
	r := &Rule{
		Name: "poolown",
		Doc:  "pooled values are not used after Put and not retained beyond the owner's frame",
	}
	r.Run = func(p *Pass) {
		applies := false
		for _, suf := range cfg.PkgSuffixes {
			if suffixMatch(p.Pkg.Path, suf) {
				applies = true
				break
			}
		}
		if !applies {
			return
		}
		for _, f := range p.Pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				pooled := pooledLocals(fd.Body, isGet)
				checkRetention(p, fd.Body, pooled)
				checkUseAfterPut(p, fd.Body, isPut)
			}
		}
	}
	return r
}

// calleeName is the name of a called function or method: "getBuf" for
// getBuf(...) and for l.getBuf(...), "" for anything else.
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// pooledLocals collects the names of locals whose binding expression
// contains a pool Get call — `buf := getWireBuf()` as well as derivations
// like `buf := appendHeader(getWireBuf(), m)`.
func pooledLocals(body *ast.BlockStmt, isGet func(*ast.CallExpr) bool) map[string]bool {
	pooled := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		fromPool := false
		for _, rhs := range as.Rhs {
			if exprContainsCall(rhs, isGet) {
				fromPool = true
				break
			}
		}
		if !fromPool {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
				pooled[id.Name] = true
			}
		}
		return true
	})
	return pooled
}

func exprContainsCall(expr ast.Expr, match func(*ast.CallExpr) bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && match(call) {
			found = true
			return false
		}
		return true
	})
	return found
}

// checkRetention flags pooled locals that escape the function's frame.
func checkRetention(p *Pass, body *ast.BlockStmt, pooled map[string]bool) {
	if len(pooled) == 0 {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				switch lhs.(type) {
				case *ast.SelectorExpr, *ast.IndexExpr:
				default:
					continue
				}
				if i >= len(n.Rhs) {
					continue
				}
				if id, ok := n.Rhs[i].(*ast.Ident); ok && pooled[id.Name] {
					p.Reportf(n.Pos(), "pooled value %s stored into %s outlives its owner's frame; copy it or transfer ownership explicitly", id.Name, render(p.Pkg.Fset, lhs))
				}
			}
		case *ast.GoStmt:
			lit, ok := n.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true
			}
			params := make(map[string]bool)
			for _, fld := range lit.Type.Params.List {
				for _, name := range fld.Names {
					params[name.Name] = true
				}
			}
			ast.Inspect(lit.Body, func(inner ast.Node) bool {
				id, ok := inner.(*ast.Ident)
				if ok && pooled[id.Name] && !params[id.Name] {
					p.Reportf(id.Pos(), "pooled value %s captured by a spawned goroutine; the pool may recycle it under the goroutine", id.Name)
					return false
				}
				return true
			})
			return false
		}
		return true
	})
}

// checkUseAfterPut flags references to a variable in statements that follow
// its Put within the same block, unless a later statement rebinds it first.
func checkUseAfterPut(p *Pass, body *ast.BlockStmt, isPut func(*ast.CallExpr) (string, bool)) {
	ast.Inspect(body, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, stmt := range block.List {
			name, putName, ok := putOfIdent(stmt, isPut)
			if !ok {
				continue
			}
			for _, later := range block.List[i+1:] {
				if rebinds(later, name) {
					break
				}
				if use, used := firstUse(later, name); used {
					p.Reportf(use.Pos(), "%s used after %s(%s) returned it to the pool", name, putName, name)
					break
				}
			}
		}
		return true
	})
}

// putOfIdent matches a statement of the form `putX(v)` or `pool.Put(v)`
// and returns v's name with the put's display name.
func putOfIdent(stmt ast.Stmt, isPut func(*ast.CallExpr) (string, bool)) (name, putName string, ok bool) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return "", "", false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return "", "", false
	}
	putName, ok = isPut(call)
	if !ok {
		return "", "", false
	}
	arg, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return "", "", false
	}
	return arg.Name, putName, true
}

// rebinds reports whether stmt assigns a fresh value to name at its top
// level (which ends the recycled value's liveness).
func rebinds(stmt ast.Stmt, name string) bool {
	as, ok := stmt.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && id.Name == name {
			return true
		}
	}
	return false
}

// firstUse reports the first reference to name anywhere under stmt.
func firstUse(stmt ast.Stmt, name string) (ast.Node, bool) {
	var at ast.Node
	ast.Inspect(stmt, func(n ast.Node) bool {
		if at != nil {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			at = id
			return false
		}
		return true
	})
	if at == nil {
		return nil, false
	}
	return at, true
}

// suffixMatch reports whether path ends with suffix on a path-element
// boundary.
func suffixMatch(path, suffix string) bool {
	if path == suffix {
		return true
	}
	n := len(path) - len(suffix)
	return n > 0 && path[n-1] == '/' && path[n:] == suffix
}
