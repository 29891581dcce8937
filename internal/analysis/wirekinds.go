package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// WirekindsConfig configures the wire-kind coverage rule for one package.
type WirekindsConfig struct {
	// PkgSuffix selects the package by import-path suffix.
	PkgSuffix string
	// KindPrefix selects the kind constants by name prefix ("msg", "ctl").
	KindPrefix string
	// DispatchFuncs names the receive-side dispatch functions; every kind
	// constant must appear as a switch case in at least one of them.
	DispatchFuncs []string
}

// Wirekinds builds the wire-kind coverage rule: a kind constant someone can
// send but no dispatch switch handles is dead on arrival at the receiver.
// It polices protocols that dispatch by switch (the kernel's ctl* kinds);
// the engine's msg* kinds dispatch through a table and need no rule.
func Wirekinds(cfgs []WirekindsConfig) *Rule {
	r := &Rule{
		Name: "wirekinds",
		Doc:  "every wire-kind constant is a case of a dispatch switch",
	}
	r.Run = func(p *Pass) {
		for i := range cfgs {
			if suffixMatch(p.Pkg.Path, cfgs[i].PkgSuffix) {
				runWirekinds(p, &cfgs[i])
			}
		}
	}
	return r
}

func runWirekinds(p *Pass, cfg *WirekindsConfig) {
	kinds := kindConsts(p, cfg.KindPrefix)
	if len(kinds) == 0 {
		return
	}
	dispatched := caseIdents(p, cfg.DispatchFuncs)
	for _, k := range kinds {
		if !dispatched[k.name] {
			p.Reportf(k.pos.Pos(), "wire kind %s is not a case in any dispatch switch (%s): receivers will reject it as unknown", k.name, strings.Join(cfg.DispatchFuncs, ", "))
		}
	}
}

// kindConst is one kind constant declaration.
type kindConst struct {
	name string
	pos  ast.Node
}

// kindConsts collects the package's kind constants: prefix followed by an
// upper-case letter, so "msg" matches msgToken but not a lower-case word
// that merely starts with the same letters.
func kindConsts(p *Pass, prefix string) []kindConst {
	var out []kindConst
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if strings.HasPrefix(name.Name, prefix) && len(name.Name) > len(prefix) &&
						name.Name[len(prefix)] >= 'A' && name.Name[len(prefix)] <= 'Z' {
						out = append(out, kindConst{name: name.Name, pos: name})
					}
				}
			}
		}
	}
	return out
}

// caseIdents collects every identifier appearing in a switch case inside
// the named functions.
func caseIdents(p *Pass, funcs []string) map[string]bool {
	want := make(map[string]bool, len(funcs))
	for _, fn := range funcs {
		want[fn] = true
	}
	out := make(map[string]bool)
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !want[fd.Name.Name] {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				cc, ok := n.(*ast.CaseClause)
				if !ok {
					return true
				}
				for _, expr := range cc.List {
					if id, ok := expr.(*ast.Ident); ok {
						out[id.Name] = true
					}
				}
				return true
			})
		}
	}
	return out
}
