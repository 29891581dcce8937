package tcptransport

import (
	"net"
	"testing"
	"time"
)

// warmPair is startPair with the a→b connection dialed and a's streak to b
// over, so that what a test sends next starts from an idle destination.
func warmPair(t *testing.T) (a, b *Node, got *collector) {
	t.Helper()
	a, b = startPair(t)
	got = &collector{}
	b.SetHandler(got.handle)
	if err := a.Send("b", seqFrame(9, 0, 8)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the warm-up frame", 5*time.Second, func() bool { return got.count() == 1 })
	got.mu.Lock()
	got.frames = nil
	got.mu.Unlock()
	time.Sleep(2 * streakGap)
	return a, b, got
}

// checkSeqs fails unless exactly seqs 0..n-1 arrived, in order.
func checkSeqs(t *testing.T, got *collector, n int) {
	t.Helper()
	waitFor(t, "every frame", 5*time.Second, func() bool { return got.count() >= n })
	seqs := got.seqs()
	if len(seqs) != n {
		t.Fatalf("%d frames arrived, want %d", len(seqs), n)
	}
	for i, s := range seqs {
		if s != uint32(i) {
			t.Fatalf("frame %d arrived at position %d: %v", s, i, seqs)
		}
	}
}

// TestCorkUncorkIsOneWrite: frames corked for one destination leave in the
// write Uncork makes, in order. A backstop firing (a slow run) may take
// some of them first; each firing costs at most one write of its own.
func TestCorkUncorkIsOneWrite(t *testing.T) {
	a, _, got := warmPair(t)
	const n = 2 * streakLen // corked frames do not stream
	before := a.Stats()
	for seq := uint32(0); seq < n; seq++ {
		if err := a.SendCorked("b", seqFrame(0, seq, 100)); err != nil {
			t.Fatal(err)
		}
	}
	a.Uncork()
	checkSeqs(t, got, n)
	after := a.Stats()
	writes, timeouts := after.Writes-before.Writes, after.CorkTimeouts-before.CorkTimeouts
	if writes < 1 || writes > 1+timeouts {
		t.Fatalf("%d corked frames took %d writes with %d backstop firings; want one write plus one per firing", n, writes, timeouts)
	}
	// A firing during a slow write leaves what it let go queued, and the
	// frames behind join it; with none, every frame corked.
	corked, queued := after.FramesCorked-before.FramesCorked, after.FramesQueued-before.FramesQueued
	if timeouts == 0 && (corked != n || queued != 0) {
		t.Fatalf("%d of %d frames corked, %d queued", corked, n, queued)
	}
}

// TestCorkedStreamSkipsTheWriter: a stream of corked frames is written by
// its sender whenever corkLimit bytes are corked, and by the uncork; the
// writer goroutine, which may have to wait for a processor, never sees it.
func TestCorkedStreamSkipsTheWriter(t *testing.T) {
	a, _, got := warmPair(t)
	const size = 1 << 10
	n := 3 * corkLimit / 2 / size // one write at the limit, one at the uncork
	before := a.Stats()
	for seq := 0; seq < n; seq++ {
		if err := a.SendCorked("b", seqFrame(0, uint32(seq), size)); err != nil {
			t.Fatal(err)
		}
	}
	a.Uncork()
	checkSeqs(t, got, n)
	after := a.Stats()
	writes, timeouts := after.Writes-before.Writes, after.CorkTimeouts-before.CorkTimeouts
	corked, queued := after.FramesCorked-before.FramesCorked, after.FramesQueued-before.FramesQueued
	if timeouts == 0 && (corked != int64(n) || queued != 0) {
		t.Fatalf("%d of %d frames corked, %d queued for the writer", corked, n, queued)
	}
	if writes < 2 || writes > 2+timeouts {
		t.Fatalf("%d corked KiB took %d writes with %d backstop firings; want one per %d KiB, one for the rest, and one per firing", n, writes, timeouts, corkLimit>>10)
	}
}

// TestSendCarriesCorkedFrames: a plain Send from another goroutine to a
// destination with corked frames is delivered after them, in the same
// write, made by the Send's caller even though the corked sends made the
// destination streamed to.
func TestSendCarriesCorkedFrames(t *testing.T) {
	a, _, got := warmPair(t)
	const corked = 2 * streakLen
	before := a.Stats()
	for seq := uint32(0); seq < corked; seq++ {
		if err := a.SendCorked("b", seqFrame(0, seq, 100)); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error)
	go func() { errs <- a.Send("b", seqFrame(0, corked, 100)) }()
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	// Unless the backstop got there first, the Send wrote everything before
	// it returned.
	sent := a.Stats()
	if sent.CorkTimeouts == before.CorkTimeouts && sent.FramesSent-before.FramesSent != corked+1 {
		t.Fatalf("Send returned with %d of %d frames written", sent.FramesSent-before.FramesSent, corked+1)
	}
	checkSeqs(t, got, corked+1)
	after := a.Stats()
	if writes, timeouts := after.Writes-before.Writes, after.CorkTimeouts-before.CorkTimeouts; writes > 1+timeouts {
		t.Fatalf("%d writes with %d backstop firings: the Send did not carry the corked frames", writes, timeouts)
	}
	a.Uncork() // nothing left: a no-op
	if st := a.Stats(); st.Writes != after.Writes {
		t.Fatalf("Uncork wrote %d more times after the Send took every corked frame", st.Writes-after.Writes)
	}
}

// TestCloseWritesCorkedFrames: Close gives corked frames their last write
// like any accepted frame.
func TestCloseWritesCorkedFrames(t *testing.T) {
	a, _, got := warmPair(t)
	const n = 3
	for seq := uint32(0); seq < n; seq++ {
		if err := a.SendCorked("b", seqFrame(0, seq, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	checkSeqs(t, got, n)
	if err := a.SendCorked("b", seqFrame(0, n, 100)); err != ErrClosed {
		t.Fatalf("SendCorked on a closed node: %v, want ErrClosed", err)
	}
}

// TestCorkBackstop: a cork nobody uncorks is written by the backstop.
func TestCorkBackstop(t *testing.T) {
	a, _, got := warmPair(t)
	if err := a.SendCorked("b", seqFrame(0, 0, 100)); err != nil {
		t.Fatal(err)
	}
	checkSeqs(t, got, 1)
	if st := a.Stats(); st.CorkTimeouts != 1 || st.FramesCorked != 1 {
		t.Fatalf("stats %+v: want one frame corked and one backstop firing", st)
	}
}

// TestCorkSurvivesWriteInProgress: a frame corked behind a batch being
// written (here one the owner is retrying) stays corked when that write
// ends: the owner's loop writes the batch and stops, and the corked frame
// leaves with the uncork.
func TestCorkSurvivesWriteInProgress(t *testing.T) {
	a, _, got := warmPair(t)
	p := a.peer("b")
	before := a.Stats()
	inFlight, corked := seqFrame(0, 0, 100), seqFrame(0, 1, 100)
	p.mu.Lock()
	// Only the uncork may let the corked frame go, and the test is the
	// owner, between two attempts at its batch.
	p.backstop = time.AfterFunc(time.Hour, func() {})
	p.busy = true
	p.batch = append(p.batch, inFlight)
	p.qBytes += len(inFlight)
	if _, err := p.admitLocked(time.Since(a.start), corked, true); err != nil {
		t.Fatal(err)
	}
	held := p.corked
	p.drainLocked()
	left := p.pendingLocked()
	p.busy = false
	p.mu.Unlock()
	if held == 0 || left != 1 {
		t.Fatalf("corked %d bytes behind the batch, %d frames left after the owner's loop; want the corked one left", held, left)
	}
	waitFor(t, "the batch", 5*time.Second, func() bool { return got.count() == 1 })
	if w := a.Stats().Writes - before.Writes; w != 1 {
		t.Fatalf("%d writes for the batch", w)
	}
	a.Uncork()
	checkSeqs(t, got, 2)
}

// hungPeer listens on loopback and accepts connections it never reads.
func hungPeer(t *testing.T) string {
	t.Helper()
	hung, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hung.Close() })
	go func() {
		for {
			c, err := hung.Accept()
			if err != nil {
				return
			}
			t.Cleanup(func() { _ = c.Close() })
		}
	}()
	return hung.Addr().String()
}

// TestSendToHungPeerFailsWithinBudget: the retry budget runs from a
// destination's first failed write to its next good one, whoever makes the
// attempts — the sender inline, the sender letting corked or queued frames
// go, or the writer goroutine — so with a budget a peer that accepts and
// never reads fails every sender within the first stalled write, the budget
// and the stalled write in progress when it ran out, after a bounded number
// of dials.
func TestSendToHungPeerFailsWithinBudget(t *testing.T) {
	const timeout, budget = 200 * time.Millisecond, 500 * time.Millisecond
	for _, corked := range []bool{false, true} {
		name := map[bool]string{false: "Send", true: "SendCorked"}[corked]
		t.Run(name, func(t *testing.T) {
			a, err := Listen("a", "127.0.0.1:0", StaticResolver(map[string]string{"h": hungPeer(t)}),
				WithWriteTimeout(timeout), WithRetryBudget(budget))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = a.Close() })
			payload := make([]byte, smallFrame)
			start := time.Now()
			for i := 0; ; i++ {
				if corked {
					err = a.SendCorked("h", payload)
					if i%8 == 7 {
						a.Uncork()
					}
				} else {
					err = a.Send("h", payload)
				}
				if err != nil {
					break
				}
				if time.Since(start) > 20*timeout {
					t.Fatalf("%s to a never-reading peer still accepted after %v (%+v)", name, time.Since(start), a.Stats())
				}
			}
			elapsed, st := time.Since(start), a.Stats()
			t.Logf("%s failed after %v and %d dials: %v", name, elapsed, st.Dials, err)
			if !IsTransient(err) {
				t.Fatalf("%s to a never-reading peer: %v, want a transient error", name, err)
			}
			if limit := timeout + budget + timeout + time.Second; elapsed > limit {
				t.Errorf("%s failed after %v, over %v", name, elapsed, limit)
			}
			// The first dial, the one after the first stalled write, then one
			// per write timeout in the budget, rounded up.
			if limit := int64(3 + budget/timeout); st.Dials > limit {
				t.Errorf("%s dialed %d times, over %d (%+v)", name, st.Dials, limit, st)
			}
		})
	}
}

// TestCorkedWriteToHungPeerFails: a corked stream is written by its sender
// through the uncork, so a write that stalls there, on a peer that accepts
// and never reads, is a failed attempt like the writer's: with no retry
// budget the outbox fails and the sender hears of it, instead of redialing
// behind its back after every stalled write.
func TestCorkedWriteToHungPeerFails(t *testing.T) {
	hung, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hung.Close()
	go func() {
		for {
			c, err := hung.Accept()
			if err != nil {
				return
			}
			defer c.Close() // accepted, never read
		}
	}()
	const timeout = 300 * time.Millisecond
	a, err := Listen("a", "127.0.0.1:0", StaticResolver(map[string]string{"h": hung.Addr().String()}),
		WithWriteTimeout(timeout), WithRetryBudget(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	payload := make([]byte, smallFrame)
	start := time.Now()
	for i := 0; ; i++ {
		if err = a.SendCorked("h", payload); err != nil {
			break
		}
		if i%8 == 7 {
			a.Uncork()
		}
		if time.Since(start) > 20*timeout {
			t.Fatalf("corked writes to a never-reading peer still accepted after %v (%+v)", time.Since(start), a.Stats())
		}
	}
	if !IsTransient(err) {
		t.Fatalf("SendCorked to a never-reading peer: %v, want a transient error", err)
	}
}
