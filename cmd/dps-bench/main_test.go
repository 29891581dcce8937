package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/dps"
	"repro/internal/bench"
)

func statsText(s *dps.Stats) string { return (&bench.Report{Stats: s}).StatsText() }

// TestFormatStatsCoversEveryField perturbs each dps.Stats field in turn and
// requires what -stats prints to change: the rendering is a reflection walk,
// so this holds for a counter added tomorrow too.
func TestFormatStatsCoversEveryField(t *testing.T) {
	baseline := statsText(&dps.Stats{})
	typ := reflect.TypeOf(dps.Stats{})
	for i := 0; i < typ.NumField(); i++ {
		s := &dps.Stats{}
		reflect.ValueOf(s).Elem().Field(i).SetInt(7919)
		if statsText(s) == baseline {
			t.Errorf("-stats output does not change with Stats.%s", typ.Field(i).Name)
		}
	}
}

func TestFormatStatsIncludesMigrationCounters(t *testing.T) {
	out := statsText(&dps.Stats{MigrationsCompleted: 3, TokensForwarded: 17, MigrationBytes: 512})
	for _, want := range []string{"dps_migrations_completed 3\n", "dps_tokens_forwarded 17\n", "dps_migration_bytes 512\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-stats output missing %q:\n%s", want, out)
		}
	}
}
