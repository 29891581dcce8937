package analysis

import (
	"strings"
	"testing"
)

func TestBoundaryGolden(t *testing.T) {
	runGolden(t, "testdata/boundary", "vettest/outsider", ProjectBoundary())
}

// TestBoundaryAllowsEngineConsumers loads the same violating fixture under
// an allowed import path: the sealed imports must pass without findings.
func TestBoundaryAllowsEngineConsumers(t *testing.T) {
	for _, path := range []string{"repro/internal/worker", "repro/dps", "repro/internal/worker_test"} {
		pkg, err := LoadFixture("testdata/boundary", path)
		if err != nil {
			t.Fatalf("load fixture: %v", err)
		}
		if got := Run([]*Package{pkg}, []*Rule{ProjectBoundary()}); len(got) != 0 {
			t.Errorf("path %s: expected no findings, got %v", path, got)
		}
	}
}

func TestLockheldGolden(t *testing.T) {
	runGolden(t, "testdata/lockheld", "vettest/lockheld", Lockheld())
}

func TestPoolownGolden(t *testing.T) {
	runGolden(t, "testdata/poolown", "vettest/poolown", Poolown(PoolownConfig{
		PkgSuffixes: []string{"poolown"},
		Pools:       []PoolSpec{{Get: "getBuf", Put: "putBuf"}},
		ExtraGets:   []string{"decodeBuf", "frame"},
	}))
}

// TestIgnoreSuppression: a valid //dpsvet:ignore directive on the line above
// a finding suppresses exactly that finding.
func TestIgnoreSuppression(t *testing.T) {
	runGolden(t, "testdata/ignore", "vettest/outsider", ProjectBoundary())
}

// TestIgnoreValidation: malformed directives are findings of the
// pseudo-rule "dpsvet" and carry a diagnosis.
func TestIgnoreValidation(t *testing.T) {
	pkg, err := LoadFixture("testdata/ignorebad", "vettest/ignorebad")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	got := Run([]*Package{pkg}, []*Rule{ProjectBoundary()})
	wantMsgs := []string{
		"ignore directive names no rule",
		`ignore directive names unknown rule "nosuchrule"`,
		`ignore directive for "boundary" gives no reason`,
	}
	if len(got) != len(wantMsgs) {
		t.Fatalf("expected %d findings, got %d: %v", len(wantMsgs), len(got), got)
	}
	for i, f := range got {
		if f.Rule != "dpsvet" {
			t.Errorf("finding %d: rule = %q, want dpsvet", i, f.Rule)
		}
		if f.Msg != wantMsgs[i] {
			t.Errorf("finding %d: msg = %q, want %q", i, f.Msg, wantMsgs[i])
		}
	}
}

// TestProjectRuleNamesMatchVocabulary keeps KnownRuleNames (the directive
// vocabulary) in lockstep with the rules ProjectRules actually runs.
func TestProjectRuleNamesMatchVocabulary(t *testing.T) {
	known := make(map[string]bool, len(KnownRuleNames))
	for _, n := range KnownRuleNames {
		known[n] = true
	}
	var ran []string
	for _, r := range ProjectRules() {
		ran = append(ran, r.Name)
		if !known[r.Name] {
			t.Errorf("rule %q not in KnownRuleNames", r.Name)
		}
	}
	if len(ran) != len(KnownRuleNames) {
		t.Errorf("ProjectRules runs %v but KnownRuleNames is %v", ran, KnownRuleNames)
	}
}

// TestFindingString pins the file:line: rule: message output format the CI
// job greps and humans click on.
func TestFindingString(t *testing.T) {
	pkg, err := LoadFixture("testdata/boundary", "vettest/outsider")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	got := Run([]*Package{pkg}, []*Rule{ProjectBoundary()})
	if len(got) == 0 {
		t.Fatal("expected findings")
	}
	s := got[0].String()
	if !strings.Contains(s, "outsider.go:") || !strings.Contains(s, ": boundary: ") {
		t.Errorf("finding format = %q, want file:line: rule: message", s)
	}
}
