package analysis

// This file is the project configuration: the three rules instantiated for
// this repository's invariants. cmd/dps-vet and the root boundary test run
// these; the rule implementations themselves are project-agnostic and are
// exercised against synthetic fixtures in testdata/.

// KnownRuleNames is the complete rule-name vocabulary, used to validate
// //dpsvet:ignore directives even in runs that execute a subset of rules.
var KnownRuleNames = []string{"boundary", "lockheld", "poolown"}

// ProjectBoundary seals internal/core behind the repro/dps façade (PR 3):
// only internal/ packages and the façade itself may program against the
// engine.
func ProjectBoundary() *Rule {
	return Boundary(BoundaryConfig{
		Sealed:  []string{"repro/internal/core"},
		Allowed: []string{"repro/internal", "repro/dps"},
		Suggest: "repro/dps",
	})
}

// ProjectRules returns the full dps-vet suite configured for this tree.
func ProjectRules() []*Rule {
	return []*Rule{
		ProjectBoundary(),

		// *Locked discipline (tcptransport's peer and node methods, the
		// callers of App.declareLocked, and any future adopter of the
		// convention): project-wide, the convention is global.
		Lockheld(),

		// Pooled wire buffers and envelopes (internal/core/pool.go).
		// decodeToken hands out a pooled envelope,
		// and link.tokenFrame a wire buffer drawn for the frame it builds,
		// so their results are pool-owned too. A kernel (internal/kernel)
		// draws the same buffers for the app frames it sends through an
		// application's lender (borrow, inside makeAppFrame), and gives
		// what it is done with back through the application's release. A
		// received frame is only lent, so no receive path puts anything.
		// The function names are package-local and distinct, so one rule
		// instance covers both packages.
		Poolown(PoolownConfig{
			PkgSuffixes: []string{"internal/core", "internal/kernel"},
			Pools: []PoolSpec{
				{Get: "getEnvelope", Put: "putEnvelope"},
				{Get: "getWireBuf", Put: "putWireBuf"},
				{Get: "borrow", Put: "release"},
			},
			ExtraGets: []string{"decodeToken", "tokenFrame", "makeAppFrame"},
		}),
	}
}
