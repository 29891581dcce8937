package place

import (
	"reflect"
	"testing"
)

// The TestRelay* and TestGates* cases below are the unit tests of the former
// Relay and Gates types, re-expressed against Thread under their old names;
// the orderings they sample one at a time are enumerated in full by
// TestThreadExhaustive (model_test.go).

// arrive delivers one item the way the engine's glue does and reports the
// verdict.
func arrive(t *testing.T, th *Thread, src string, lane Lane, item any) Verdict {
	t.Helper()
	v, _ := th.Arrive(src, lane, item)
	if v == Deliver {
		th.Done()
	}
	return v
}

// drainAll runs a batch's drain to its end and returns everything it
// delivered.
func drainAll(th *Thread, batch []any) []any {
	var out []any
	for batch != nil {
		out = append(out, batch...)
		batch = th.Next(len(batch))
	}
	return out
}

func TestRelayHoldFlushForward(t *testing.T) {
	th := NewThread(nil)
	if v := arrive(t, th, "s", Direct, "pre"); v != Deliver {
		t.Fatalf("serving thread: verdict %d, want Deliver", v)
	}
	if err := th.BeginHold(3); err != nil {
		t.Fatal(err)
	}
	if err := th.BeginHold(3); err == nil {
		t.Fatal("second hold of a moving thread accepted")
	}
	for _, it := range []string{"a", "b"} {
		if v := arrive(t, th, "s", Direct, it); v != Held {
			t.Fatalf("hold: verdict %d, want Held", v)
		}
	}
	if th.HeldLen() != 2 {
		t.Fatalf("held %d", th.HeldLen())
	}
	if got := th.Flush("nodeB"); !reflect.DeepEqual(got, []any{"a", "b"}) {
		t.Fatalf("flushed %v", got)
	}
	// An arrival racing the flush is still held, behind what it follows.
	if v := arrive(t, th, "s", Direct, "c"); v != Held {
		t.Fatalf("arrival during flush: verdict %d, want Held", v)
	}
	if got := th.Flush("nodeB"); !reflect.DeepEqual(got, []any{"c"}) {
		t.Fatalf("second flush %v", got)
	}
	if got := th.Flush("nodeB"); got != nil {
		t.Fatalf("empty flush returned %v", got)
	}
	if v, tgt := th.Arrive("s", Direct, "d"); v != Forward || tgt != "nodeB" {
		t.Fatalf("forwarding: verdict %d to %q", v, tgt)
	}
	if v, tgt, _ := th.Fence("s", 9, "f"); v != Forward || tgt != "nodeB" {
		t.Fatalf("fence at a forwarding thread: verdict %d to %q", v, tgt)
	}
	th.Retarget("nodeC")
	if _, tgt := th.Arrive("s", Forwarded, "e"); tgt != "nodeC" {
		t.Fatalf("retargeted thread forwards to %q", tgt)
	}
	if th.HeldLen() != 0 {
		t.Fatal("forwarding thread holds items")
	}
}

func TestRelayAbort(t *testing.T) {
	th := NewThread(nil)
	if err := th.BeginHold(1); err != nil {
		t.Fatal(err)
	}
	arrive(t, th, "s", Direct, 1)
	arrive(t, th, "s", Direct, 2)
	batch := th.Abort()
	if !reflect.DeepEqual(batch, []any{1, 2}) {
		t.Fatalf("aborted %v", batch)
	}
	// Until the drain closes, a new arrival queues behind the batch.
	if v := arrive(t, th, "s", Direct, 3); v != Buffered {
		t.Fatalf("arrival during the abort's drain: verdict %d, want Buffered", v)
	}
	if got := drainAll(th, batch); !reflect.DeepEqual(got, []any{1, 2, 3}) {
		t.Fatalf("drained %v", got)
	}
	if v := arrive(t, th, "s", Direct, 4); v != Deliver {
		t.Fatalf("after the abort: verdict %d, want Deliver", v)
	}
	if err := th.BeginHold(1); err != nil {
		t.Fatalf("hold after an abort: %v", err)
	}
}

// installed returns a thread that has just become owner at epoch with the
// given number of senders cut, its install drain closed.
func installed(t *testing.T, epoch uint64, fences int) *Thread {
	t.Helper()
	th := NewThread(nil)
	done := th.Expect()
	if got := drainAll(th, th.Install(epoch, fences, "")); len(got) != 0 {
		t.Fatalf("empty install delivered %v", got)
	}
	select {
	case <-done:
	default:
		t.Fatal("Install did not close the Expect channel")
	}
	return th
}

func TestGatesOpenThenClose(t *testing.T) {
	th := installed(t, 5, 2)
	// From Install on every sender's direct items wait for its closing fence...
	if arrive(t, th, "s", Direct, "t1") != Buffered || arrive(t, th, "s", Direct, "t2") != Buffered {
		t.Fatal("open gate did not buffer")
	}
	if arrive(t, th, "other", Direct, "x") != Buffered {
		t.Fatal("a second sender was not gated")
	}
	// ...while what the old owner forwards goes straight through, whichever
	// node's name it comes under.
	if arrive(t, th, "s", Forwarded, "stale") != Deliver {
		t.Fatal("forwarded lane was gated")
	}
	if err := th.BeginHold(5); err != nil {
		t.Fatal(err)
	}
	if th.Quiesced() {
		t.Fatal("quiesced with both handshakes outstanding")
	}
	th.Abort()
	v, _, batch := th.Fence("s", 5, "f")
	if v != Absorbed || !reflect.DeepEqual(batch, []any{"t1", "t2"}) {
		t.Fatalf("closing fence: verdict %d, released %v", v, batch)
	}
	if arrive(t, th, "s", Direct, "t3") != Buffered {
		t.Fatal("a direct item overtook the gate's release")
	}
	if got := drainAll(th, batch); !reflect.DeepEqual(got, []any{"t1", "t2", "t3"}) {
		t.Fatalf("drained %v", got)
	}
	if arrive(t, th, "s", Direct, "t4") != Deliver {
		t.Fatal("closed gate still buffering")
	}
	if _, _, again := th.Fence("s", 5, "f"); again != nil {
		t.Fatalf("duplicate fence released %v", again)
	}
	if err := th.BeginHold(5); err != nil {
		t.Fatal(err)
	}
	if th.Quiesced() {
		t.Fatal("quiesced with one handshake outstanding")
	}
	// The last fence releases its sender into the hold, not past it.
	if _, _, batch := th.Fence("other", 5, "f"); batch != nil {
		t.Fatalf("gate released %v past a hold", batch)
	}
	if !th.Quiesced() {
		t.Fatal("not quiesced after every handshake")
	}
	if got := th.Flush("next"); !reflect.DeepEqual(got, []any{"x"}) {
		t.Fatalf("hold kept %v, want the released item", got)
	}
}

func TestGatesCloseBeforeOpen(t *testing.T) {
	// A closing fence that reaches the new owner before the state does is
	// admitted at Install in arrival order: its sender's items behind it are
	// never gated, the ones before it are released by it.
	th := NewThread(nil)
	th.Expect()
	if arrive(t, th, "s", Direct, "early") != Buffered {
		t.Fatal("expecting thread did not buffer")
	}
	if v, _, _ := th.Fence("s", 3, "f"); v != Buffered {
		t.Fatalf("fence before Install: verdict %d, want Buffered", v)
	}
	if arrive(t, th, "s", Direct, "late") != Buffered {
		t.Fatal("expecting thread did not buffer")
	}
	if th.HeldLen() != 3 {
		t.Fatalf("install buffer holds %d", th.HeldLen())
	}
	if got := drainAll(th, th.Install(3, 1, "")); !reflect.DeepEqual(got, []any{"early", "late"}) {
		t.Fatalf("install drained %v", got)
	}
	if arrive(t, th, "s", Direct, "after") != Deliver {
		t.Fatal("gate shut although its fence came first")
	}
}

func TestGatesEpochFloorAndStragglers(t *testing.T) {
	th := installed(t, 5, 1)
	arrive(t, th, "s", Direct, "t")
	// A straggler of an earlier move must not stand in for this one's fence...
	if v, _, batch := th.Fence("s", 2, "old"); v != Absorbed || batch != nil {
		t.Fatalf("stale fence: verdict %d, released %v", v, batch)
	}
	if err := th.BeginHold(5); err != nil {
		t.Fatal(err)
	}
	if th.Quiesced() {
		t.Fatal("a stale fence completed the handshake")
	}
	// ...a fence of the move now quiescing here travels with its held stream...
	if v, _, _ := th.Fence("s", 6, "next"); v != Held {
		t.Fatalf("fence of the move in progress: verdict %d, want Held", v)
	}
	th.Fence("s", 5, "f")
	if !th.Quiesced() {
		t.Fatal("not quiesced after the matching fence")
	}
	if got := th.Flush("n"); !reflect.DeepEqual(got, []any{"next", "t"}) {
		t.Fatalf("held %v", got)
	}
	// ...and on a thread that gates nobody a fence is simply absorbed.
	if v, _, batch := NewThread(nil).Fence("s", 7, "f"); v != Absorbed || batch != nil {
		t.Fatalf("fence at an ungated thread: verdict %d, released %v", v, batch)
	}
}

func TestGatesNewerEpochSupersedes(t *testing.T) {
	th := installed(t, 2, 0) // a failover: nobody is gated
	if arrive(t, th, "s", Direct, "a") != Deliver {
		t.Fatal("install without fences gated a sender")
	}
	if err := th.BeginHold(2); err != nil {
		t.Fatal(err)
	}
	for th.Flush("away") != nil {
	}
	// The thread comes back under a newer epoch: the old forwarding duty and
	// anything of epoch 2 are superseded.
	th.Expect()
	drainAll(th, th.Install(4, 1, ""))
	arrive(t, th, "s", Direct, "b")
	if _, _, batch := th.Fence("s", 2, "old"); batch != nil {
		t.Fatalf("stale close completed the newer handshake: %v", batch)
	}
	if _, _, batch := th.Fence("s", 4, "f"); !reflect.DeepEqual(batch, []any{"b"}) {
		t.Fatalf("matching close released %v", batch)
	}
}

func TestHoldPassThrough(t *testing.T) {
	open := map[any]bool{"member": true}
	th := NewThread(func(item any) bool { return open[item] })
	if err := th.BeginHold(1); err != nil {
		t.Fatal(err)
	}
	if arrive(t, th, "s", Direct, "member") != Deliver {
		t.Fatal("item of an open group was held")
	}
	if arrive(t, th, "s", Direct, "new") != Held {
		t.Fatal("new work passed the hold")
	}
}

func TestInstallDrainsCoordinatorFirst(t *testing.T) {
	th := NewThread(nil)
	th.Expect()
	arrive(t, th, "peer", Direct, "fresh")
	arrive(t, th, "coord", Direct, "replay1")
	arrive(t, th, "coord", Direct, "replay2")
	batch := th.Install(7, 0, "coord")
	// A follow-up move may begin at once, but cannot quiesce inside the drain.
	if err := th.BeginHold(7); err != nil {
		t.Fatal(err)
	}
	if th.Quiesced() {
		t.Fatal("quiesced inside the install drain")
	}
	if got := drainAll(th, batch); !reflect.DeepEqual(got, []any{"replay1", "replay2", "fresh"}) {
		t.Fatalf("install drained %v", got)
	}
	if !th.Quiesced() {
		t.Fatal("not quiesced after the install drain")
	}
}
