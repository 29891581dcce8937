// Package analysis is dps-vet: a dependency-free static-analysis suite
// that machine-checks the engine invariants this project otherwise enforces
// by comment and code review. Each Rule inspects one loaded package and
// reports Findings; cmd/dps-vet runs the full project rule set over the
// tree and fails CI on any finding.
//
// The rules (see project.go for the project configuration):
//
//   - boundary: internal/core may only be imported from internal/ and dps/
//     (the sealed-engine contract of PR 3);
//   - lockheld: a *Locked function may only be called with the receiver's
//     mutex held — from another *Locked method on the same receiver or
//     under an explicit Lock on the path to the call (defer-unlock aware);
//   - poolown: values drawn from sync.Pool wrappers are not used after
//     their Put and not retained in fields, globals or spawned goroutines
//     (the buffer-ownership-transfer contract).
//
// Escape hatch: a finding may be silenced with a directive on its line or
// the line above:
//
//	//dpsvet:ignore <rule> <reason>
//
// The directive itself is validated — an unknown rule name or a missing
// reason is an error — so suppressions stay auditable.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
}

// Rule is one invariant checker. Run inspects a single package through the
// Pass and reports violations via Pass.Reportf.
type Rule struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one package through one rule.
type Pass struct {
	Pkg  *Package
	rule *Rule
	out  *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.out = append(*p.out, Finding{
		Pos:  p.Pkg.Fset.Position(pos),
		Rule: p.rule.Name,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// ignoreDirective is one parsed //dpsvet:ignore comment.
type ignoreDirective struct {
	pos    token.Position
	rule   string
	reason string
	bad    string // non-empty: the directive itself is malformed
}

const ignorePrefix = "//dpsvet:ignore"

// parseIgnores extracts the ignore directives of one file. known is the
// full project rule-name set: directives naming anything else are reported
// as malformed rather than silently ignored.
func parseIgnores(fset *token.FileSet, f *ast.File, known map[string]bool) []ignoreDirective {
	var out []ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, ignorePrefix) {
				continue
			}
			d := ignoreDirective{pos: fset.Position(c.Pos())}
			fields := strings.Fields(strings.TrimPrefix(c.Text, ignorePrefix))
			switch {
			case len(fields) == 0:
				d.bad = "ignore directive names no rule"
			case !known[fields[0]]:
				d.bad = fmt.Sprintf("ignore directive names unknown rule %q", fields[0])
			case len(fields) < 2:
				d.bad = fmt.Sprintf("ignore directive for %q gives no reason", fields[0])
			default:
				d.rule = fields[0]
				d.reason = strings.Join(fields[1:], " ")
			}
			out = append(out, d)
		}
	}
	return out
}

// Run applies every rule to every package, resolves //dpsvet:ignore
// directives, and returns the surviving findings sorted by position.
// Malformed directives are findings of the pseudo-rule "dpsvet" and cannot
// be suppressed.
func Run(pkgs []*Package, rules []*Rule) []Finding {
	known := make(map[string]bool, len(KnownRuleNames))
	for _, n := range KnownRuleNames {
		known[n] = true
	}

	var raw []Finding
	var directives []ignoreDirective
	for _, pkg := range pkgs {
		for _, rule := range rules {
			pass := &Pass{Pkg: pkg, rule: rule, out: &raw}
			rule.Run(pass)
		}
		for _, f := range pkg.Files {
			directives = append(directives, parseIgnores(pkg.Fset, f, known)...)
		}
	}

	// Index valid directives by file and line; a finding is suppressed by a
	// matching directive on its own line or the line directly above.
	type key struct {
		file string
		line int
		rule string
	}
	allowed := make(map[key]bool)
	var out []Finding
	for _, d := range directives {
		if d.bad != "" {
			out = append(out, Finding{Pos: d.pos, Rule: "dpsvet", Msg: d.bad})
			continue
		}
		allowed[key{d.pos.Filename, d.pos.Line, d.rule}] = true
	}
	for _, f := range raw {
		if allowed[key{f.Pos.Filename, f.Pos.Line, f.Rule}] ||
			allowed[key{f.Pos.Filename, f.Pos.Line - 1, f.Rule}] {
			continue
		}
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Rule < b.Rule
	})
	return out
}
