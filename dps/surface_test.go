package dps_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/dps"
	"repro/internal/core"
)

// The option surface, checked in. Every engine knob is a core.Config field
// and every public one a dps.With* function; each independently settable
// value multiplies the configurations tests and benchmarks must cover, so
// adding one is an edit to these lists that a reviewer sees, and removing one
// shortens them.
var (
	engineConfigFields = []string{
		"Checkpoint",
		"ForceSerialize",
		"MaxInFlightCalls",
		"Registry",
		"TraceSample",
		"Window",
	}
	publicOptions = []string{
		"WithBatch",
		"WithCheckpoint",
		"WithForceSerialize",
		"WithMaxInFlightCalls",
		"WithNodes",
		"WithRegistry",
		"WithTraceSampling",
		"WithWindow",
	}
)

func TestOptionSurface(t *testing.T) {
	var fields []string
	for _, f := range reflect.VisibleFields(reflect.TypeFor[core.Config]()) {
		fields = append(fields, f.Name)
	}
	slices.Sort(fields)
	if !slices.Equal(fields, engineConfigFields) {
		t.Errorf("core.Config has %d fields %v\nchecked-in surface: %d %v", len(fields), fields, len(engineConfigFields), engineConfigFields)
	}

	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var opts []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range file.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "With") {
				opts = append(opts, fn.Name.Name)
			}
		}
	}
	slices.Sort(opts)
	if !slices.Equal(opts, publicOptions) {
		t.Errorf("package dps exports %d options %v\nchecked-in surface: %d %v", len(opts), opts, len(publicOptions), publicOptions)
	}
}

// TestWithBatchChangesNothing: the retired option builds the same engine
// configuration as leaving it out, whatever its arguments and whatever
// other options surround it.
func TestWithBatchChangesNothing(t *testing.T) {
	for _, base := range [][]dps.Option{nil, {dps.WithWindow(4), dps.WithCheckpoint(time.Second)}} {
		want, err := dps.EngineConfig(base...)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []dps.Option{dps.WithBatch(0, 0, 0), dps.WithBatch(1<<20, 64, time.Millisecond), dps.WithBatch(-1, -1, -1)} {
			got, err := dps.EngineConfig(append(slices.Clone(base), batch)...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("with WithBatch: %+v\nwithout: %+v", got, want)
			}
		}
	}
}
