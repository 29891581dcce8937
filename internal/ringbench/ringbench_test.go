package ringbench

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
)

// testCfg models a deliberately modest NIC so that the modelled transfer
// time dominates the runtime's CPU costs even when `go test ./...` runs
// other timing-heavy packages in parallel on the same machine.
func testCfg() simnet.Config {
	return simnet.Config{
		Bandwidth:  120e6,
		Latency:    20 * time.Microsecond,
		PerMessage: 10 * time.Microsecond,
	}
}

func TestRunDPSDeliversAllBytes(t *testing.T) {
	res, err := RunDPS(testCfg(), 4, 1<<20, 64<<10, 32)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBytes != 1<<20 {
		t.Fatalf("moved %d bytes", res.TotalBytes)
	}
	if res.Throughput <= 0 {
		t.Fatal("throughput not positive")
	}
}

func TestRunRawDeliversAllBytes(t *testing.T) {
	res, err := RunRaw(testCfg(), 4, 1<<20, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBytes != 1<<20 {
		t.Fatalf("moved %d bytes", res.TotalBytes)
	}
	if res.Throughput <= 0 {
		t.Fatal("throughput not positive")
	}
}

func TestDPSOverheadShrinksWithBlockSize(t *testing.T) {
	// The paper's Figure 6 shape: DPS control structures hurt mainly for
	// small data objects; for large blocks DPS approaches the raw rate.
	cfg := testCfg()
	const total = 2 << 20
	smallDPS, err := RunDPS(cfg, 4, total, 1<<10, 32)
	if err != nil {
		t.Fatal(err)
	}
	smallRaw, err := RunRaw(cfg, 4, total, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	largeDPS, err := RunDPS(cfg, 4, total, 256<<10, 32)
	if err != nil {
		t.Fatal(err)
	}
	largeRaw, err := RunRaw(cfg, 4, total, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	smallRatio := smallDPS.Throughput / smallRaw.Throughput
	largeRatio := largeDPS.Throughput / largeRaw.Throughput
	// Generous slack: `go test ./...` runs packages in parallel, so other
	// timing-heavy suites can perturb individual ratios. The paper-scale
	// sweep in internal/bench (single-process) checks strict monotonicity.
	if largeRatio < smallRatio*0.7 {
		t.Fatalf("DPS relative throughput should improve with block size: small %.2f, large %.2f",
			smallRatio, largeRatio)
	}
	if largeRatio < 0.35 {
		t.Fatalf("DPS large-block throughput too far from raw: ratio %.2f", largeRatio)
	}
}

func TestThroughputGrowsWithBlockSize(t *testing.T) {
	cfg := testCfg()
	small, err := RunDPS(cfg, 4, 1<<20, 1<<10, 32)
	if err != nil {
		t.Fatal(err)
	}
	large, err := RunDPS(cfg, 4, 1<<20, 128<<10, 32)
	if err != nil {
		t.Fatal(err)
	}
	if large.Throughput <= small.Throughput {
		t.Fatalf("throughput should grow with block size: %.1f vs %.1f MB/s",
			small.Throughput, large.Throughput)
	}
}

func TestRejectsTinyRing(t *testing.T) {
	if _, err := RunDPS(testCfg(), 1, 1024, 256, 8); err == nil {
		t.Fatal("expected error for 1-node ring")
	}
	if _, err := RunRaw(testCfg(), 1, 1024, 256); err == nil {
		t.Fatal("expected error for 1-node ring")
	}
}

// TestWindowSizeEquivalence runs the DPS ring under a 4-slot window and
// under one as large as the ring's 32 blocks: both must deliver every block
// with identical token accounting; only the stall behaviour may differ (the
// large window never stalls).
func TestWindowSizeEquivalence(t *testing.T) {
	const total, block = 1 << 20, 32 << 10
	windowed, err := RunDPSConfig(testCfg(), 4, total, block, core.Config{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	open, err := RunDPSConfig(testCfg(), 4, total, block, core.Config{Window: total / block})
	if err != nil {
		t.Fatal(err)
	}
	if windowed.TotalBytes != open.TotalBytes {
		t.Fatalf("byte totals diverge: %d vs %d", windowed.TotalBytes, open.TotalBytes)
	}
	for name, pair := range map[string][2]int64{
		"TokensPosted": {windowed.Stats.TokensPosted, open.Stats.TokensPosted},
		"GroupsOpened": {windowed.Stats.GroupsOpened, open.Stats.GroupsOpened},
		"AcksSent":     {windowed.Stats.AcksSent, open.Stats.AcksSent},
	} {
		if pair[0] != pair[1] {
			t.Errorf("%s diverges between window sizes: %d vs %d", name, pair[0], pair[1])
		}
	}
	// A 4-slot window over 32 blocks must stall; a 32-slot one never does.
	if windowed.Stats.WindowStalls == 0 {
		t.Error("no stalls on a tiny window")
	}
	if open.Stats.WindowStalls != 0 {
		t.Errorf("a window as large as the ring recorded %d stalls", open.Stats.WindowStalls)
	}
}

// TestRingRebalanceMidRun remaps a forwarding hop to another ring node (and
// back) while blocks stream through, asserting the acceptance criteria of
// the placement layer: the call does not fail, every block arrives exactly
// once (result identical to the unmigrated run), and the engine counters
// record the migrations and the forwarded in-flight tokens.
func TestRingRebalanceMidRun(t *testing.T) {
	const total, block = 4 << 20, 16 << 10
	base, err := RunDPS(testCfg(), 4, total, block, 32)
	if err != nil {
		t.Fatal(err)
	}
	spec := RebalanceSpec{Hop: 2, To: 0, After: time.Millisecond, Back: true}
	res, err := RunDPSRebalance(testCfg(), 4, total, block, core.Config{Window: 32}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBytes != base.TotalBytes {
		t.Fatalf("migrated run delivered %d bytes, baseline %d", res.TotalBytes, base.TotalBytes)
	}
	if res.Stats.MigrationsCompleted != 2 {
		t.Fatalf("MigrationsCompleted = %d, want 2 (out and back)", res.Stats.MigrationsCompleted)
	}
	if res.Stats.TokensForwarded == 0 {
		t.Fatal("no token was forwarded; the remap missed the stream")
	}
}

// TestCheckpointEgressOverhead: turning fault tolerance on must not double
// what the ring sends. Checkpoints are regenerative (a record carries what
// changed, not the full retention log), so at 64 KiB blocks the engine's
// egress with Checkpoint set stays within 1.2x of the run without it. Byte
// counters only; nothing here depends on how fast the host is.
func TestCheckpointEgressOverhead(t *testing.T) {
	const nodes, total, block = 3, 4 << 20, 64 << 10
	sent := func(checkpoint time.Duration) int64 {
		res, err := RunDPSConfig(testCfg(), nodes, total, block, core.Config{Window: 64, Checkpoint: checkpoint})
		if err != nil {
			t.Fatal(err)
		}
		if checkpoint > 0 && res.Stats.CheckpointsTaken == 0 {
			t.Fatal("no checkpoint was taken; the run compares nothing")
		}
		return res.Stats.BytesSent
	}
	plain, ft := sent(0), sent(2*time.Millisecond)
	if plain < nodes*total { // every block crosses each of the ring's links
		t.Fatalf("egress %d below the %d payload bytes the ring carries", plain, nodes*total)
	}
	if float64(ft) > 1.2*float64(plain) {
		t.Errorf("egress with checkpointing %d > 1.2x of %d without", ft, plain)
	}
	t.Logf("egress: %d plain, %d checkpointed (%.3fx)", plain, ft, float64(ft)/float64(plain))
}
