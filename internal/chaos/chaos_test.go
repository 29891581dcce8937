package chaos

import (
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/transport"
)

var testNodes = []string{"m0", "v1", "v2", "v3"}

func TestRandomDeterministic(t *testing.T) {
	a := Random(42, testNodes, 2*time.Second, 2)
	b := Random(42, testNodes, 2*time.Second, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different schedules:\n%s\n---\n%s", a, b)
	}
	c := Random(43, testNodes, 2*time.Second, 2)
	if reflect.DeepEqual(a.Faults, c.Faults) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestRandomScheduleShape(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		s := Random(seed, testNodes, 2*time.Second, 3)
		// The master is never crashed or partitioned, crashes are capped so
		// a victim survives, and every partition heals within the SimNodes'
		// retry budget before the first crash.
		crashed := map[string]bool{}
		open := map[[2]string]time.Duration{}
		var firstCrash time.Duration = 1 << 62
		for _, f := range s.Faults {
			switch f.Kind {
			case Crash:
				if f.A == testNodes[0] {
					t.Fatalf("seed %d: schedule crashes the master:\n%s", seed, s)
				}
				if crashed[f.A] {
					t.Fatalf("seed %d: %s crashed twice:\n%s", seed, f.A, s)
				}
				crashed[f.A] = true
				if f.At < firstCrash {
					firstCrash = f.At
				}
			case Partition:
				if f.A == testNodes[0] || f.B == testNodes[0] {
					t.Fatalf("seed %d: schedule partitions the master:\n%s", seed, s)
				}
				open[[2]string{f.A, f.B}] = f.At
			case Heal:
				cut, ok := open[[2]string{f.A, f.B}]
				if !ok {
					t.Fatalf("seed %d: heal without partition:\n%s", seed, s)
				}
				if f.At-cut >= transport.SimRetryBudget {
					t.Fatalf("seed %d: partition of %s/%s open %v >= retry budget %v:\n%s",
						seed, f.A, f.B, f.At-cut, transport.SimRetryBudget, s)
				}
				if f.At > firstCrash {
					t.Fatalf("seed %d: heal at %v after first crash at %v:\n%s",
						seed, f.At, firstCrash, s)
				}
				delete(open, [2]string{f.A, f.B})
			}
		}
		if len(open) > 0 {
			t.Fatalf("seed %d: partition never healed:\n%s", seed, s)
		}
		if got := s.Crashes(); got > len(testNodes)-2 {
			t.Fatalf("seed %d: %d crashes for %d victims", seed, got, len(testNodes)-1)
		}
	}
}

// TestRingTransientOnly runs the ring under a crash-free schedule: every
// injected fault must be absorbed (zero failovers, zero failed calls).
func TestRingTransientOnly(t *testing.T) {
	res, err := RunRing(Spec{Seed: 7, Span: 1200 * time.Millisecond, Crashes: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failovers != 0 {
		t.Fatalf("transient-only run triggered %d failovers", res.Failovers)
	}
	if res.Calls == 0 {
		t.Fatal("no calls completed")
	}
	t.Logf("ring transient: %d calls, %d retries, %d injected errors", res.Calls, res.Retries, res.Injected)
}

// TestRingCrash runs the ring under a schedule with one real crash: the
// run must fail over exactly once and still deliver every block.
func TestRingCrash(t *testing.T) {
	res, err := RunRing(Spec{Seed: 11, Span: 2 * time.Second, Crashes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failovers != 1 {
		t.Fatalf("Failovers = %d, want 1", res.Failovers)
	}
	if res.Recovery.Len() != 1 {
		t.Fatalf("recovery samples = %d, want 1", res.Recovery.Len())
	}
	t.Logf("ring crash: %d calls, recovery %v", res.Calls, res.Recovery.Max())
}

// TestParlifeCrashByteIdentical soaks the Game of Life under one crash
// plus transients and requires the final world to match a clean replay
// byte for byte (RunParlife checks it; this test pins the invariant).
func TestParlifeCrashByteIdentical(t *testing.T) {
	res, err := RunParlife(Spec{Seed: 3, Span: time.Second, Crashes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failovers != 1 {
		t.Fatalf("Failovers = %d, want 1", res.Failovers)
	}
	t.Logf("life crash: %d iterations, recovery %v", res.Calls, res.Recovery.Max())
}

// TestSoak is the CI chaos soak: seed and duration come from the
// environment (CHAOS_SEED, CHAOS_DURATION), so the nightly workflow can
// randomize them and a failure reproduces from the logged seed. Defaults
// keep it short enough for every CI run.
func TestSoak(t *testing.T) {
	seed := int64(1)
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", v, err)
		}
		seed = n
	}
	span := 2 * time.Second
	if v := os.Getenv("CHAOS_DURATION"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("bad CHAOS_DURATION %q: %v", v, err)
		}
		span = d
	}
	t.Logf("soak seed=%d span=%v (override with CHAOS_SEED / CHAOS_DURATION)", seed, span)
	for _, run := range []struct {
		name string
		fn   func(Spec) (*Result, error)
	}{{"ring", RunRing}, {"life", RunParlife}} {
		res, err := run.fn(Spec{Seed: seed, Span: span, Crashes: 1})
		if err != nil {
			t.Fatalf("%s soak failed (reproduce with CHAOS_SEED=%d): %v", run.name, seed, err)
		}
		t.Logf("%s: %d calls, %d failovers, %d retries, %d injected, recovery max %v",
			run.name, res.Calls, res.Failovers, res.Retries, res.Injected, res.Recovery.Max())
	}
}
