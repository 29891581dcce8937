package ft

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core/place"
)

func key(c string, t int) place.Key { return place.Key{Collection: c, Thread: t} }

// streamOf and nodeStream are StreamOf and NodeStream of the ids an
// application declares a collection and a node under.
func streamOf(coll string, thread int) Stream { return StreamOf(NameID('i', coll), thread) }
func nodeStream(node string) Stream           { return NodeStream(NameID('n', node)) }

// Input streams of the tests: senders no test State owns.
var up, other = nodeStream("up"), nodeStream("other")

func TestSeqAssignmentAndPrefixFilter(t *testing.T) {
	s := NewState(streamOf("workers", 3))
	a, b := key("workers", 0), key("workers", 1)
	st := DerivedStream(s.Stream(), nodeStream("m"))
	if got := s.NextOut(st, a); got != 1 {
		t.Fatalf("first seq = %d", got)
	}
	if got := s.NextOut(st, a); got != 2 {
		t.Fatalf("second seq = %d", got)
	}
	if got := s.NextOut(st, b); got != 1 {
		t.Fatalf("per-destination counters must be independent, got %d", got)
	}

	r := NewState(streamOf("main", 0))
	for _, seq := range []uint64{1, 2, 3} {
		if !r.CheckIn(st, seq) {
			t.Fatalf("fresh seq %d filtered", seq)
		}
	}
	for _, seq := range []uint64{3, 2, 1} {
		if r.CheckIn(st, seq) {
			t.Fatalf("duplicate seq %d accepted", seq)
		}
	}
	if !r.CheckIn(st, 4) {
		t.Fatal("next fresh seq filtered")
	}
	if !r.CheckIn(other, 1) {
		t.Fatal("streams must be independent")
	}
}

func TestLogRetentionCutAndReplayOrder(t *testing.T) {
	s := NewState(streamOf("w", 0))
	a := key("c", 1)
	s1 := DerivedStream(s.Stream(), nodeStream("in1"))
	s2 := DerivedStream(s.Stream(), nodeStream("in2"))
	// Interleave two derived streams toward one destination.
	s.Append(Entry{Stream: s1, Dst: a, Seq: 1, Kind: EntryToken})
	s.Append(Entry{Stream: s2, Dst: a, Seq: 1, Kind: EntryToken})
	s.Append(Entry{Stream: s1, Dst: a, Seq: 2, Kind: EntryToken})
	s.Append(Entry{Stream: s2, Dst: a, Seq: 2, Kind: EntryGroupEnd})
	s.Append(Entry{Stream: s1, Dst: a, Seq: 3, Kind: EntryToken})
	if s.LogLen() != 5 {
		t.Fatalf("log length %d", s.LogLen())
	}

	// Cut is per (stream, dst): s1 <= 2 falls, s2 untouched.
	if n := s.Cut(s1, a, 2); n != 2 {
		t.Fatalf("cut dropped %d entries, want 2", n)
	}
	got := s.EntriesTo(a)
	want := []struct {
		stream Stream
		seq    uint64
	}{{s2, 1}, {s2, 2}, {s1, 3}}
	if len(got) != len(want) {
		t.Fatalf("entries after cut: %d, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Stream != w.stream || got[i].Seq != w.seq {
			t.Fatalf("entry %d = (%v, %d), want (%v, %d) — replay must keep send order",
				i, got[i].Stream, got[i].Seq, w.stream, w.seq)
		}
	}
	// A cut for another destination drops nothing.
	if n := s.Cut(s2, key("c", 9), 99); n != 0 {
		t.Fatalf("foreign cut dropped %d entries", n)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := NewState(streamOf("w", 2))
	a := key("c", 0)
	st := DerivedStream(s.Stream(), nodeStream("m"))
	s.NextOut(st, a)
	s.NextOut(st, a)
	s.CheckIn(up, 7)
	s.Append(Entry{Stream: st, Dst: a, Seq: 1, CallID: 42, Kind: EntryToken, Bytes: []byte{1, 2, 3}})

	rec := s.Snapshot()
	rec.Key = key("w", 2)
	rec.Seq = 9
	rec.State = []byte("state")

	// Wire round trip.
	dec, err := DecodeRecord(AppendRecord(nil, rec))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, dec) {
		t.Fatalf("record round trip:\n got %+v\nwant %+v", dec, rec)
	}

	// Restore regenerates the original sequencing.
	r2 := NewState(streamOf("w", 2))
	r2.Restore(dec)
	if got := r2.NextOut(st, a); got != 3 {
		t.Fatalf("restored counter continues at %d, want 3", got)
	}
	if r2.CheckIn(up, 7) {
		t.Fatal("restored filter forgot a processed seq")
	}
	if got := r2.EntriesTo(a); len(got) != 1 || got[0].CallID != 42 || string(got[0].Bytes) != "\x01\x02\x03" {
		t.Fatalf("restored log: %+v", got)
	}
}

// fullRecord is a checkpoint with every section filled: a cursor, a
// counter, a retained entry with its attribution, a channel mark, a floor.
func fullRecord() *Record {
	s := NewState(streamOf("w", 2))
	a := key("c", 0)
	st := DerivedStream(s.Stream(), up)
	s.CheckIn(up, 1)
	s.Append(Entry{Stream: st, Dst: a, Seq: s.NextOut(st, a), CallID: 42, InStream: up, InSeq: 1, Kind: EntryToken, Bytes: []byte{1, 2, 3}})
	rec := s.Snapshot()
	rec.Key, rec.Seq, rec.State = key("w", 2), 9, []byte("state")
	return rec
}

// regenRecord is a regenerative checkpoint: cursors and marks, no log.
func regenRecord() *Record {
	s := NewState(streamOf("w", 1))
	a := key("c", 2)
	st := DerivedStream(s.Stream(), up)
	s.CheckIn(up, 1)
	s.Append(Entry{Stream: st, Dst: a, Seq: s.NextOut(st, a), InStream: up, InSeq: 1, Kind: EntryToken})
	s.Cut(st, a, 1)
	rec, ok := s.SnapshotRegen()
	if !ok {
		panic("regenerative snapshot refused")
	}
	rec.Key, rec.Seq = key("w", 1), 4
	return rec
}

// TestDecodeRecordHostile: a record cut anywhere short of its end is
// rejected, and a length claim far past the bytes present fails before
// anything is allocated for it.
func TestDecodeRecordHostile(t *testing.T) {
	full := AppendRecord(nil, fullRecord())
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeRecord(full[:cut]); err == nil {
			t.Errorf("the first %d of a record's %d bytes decoded", cut, len(full))
		}
	}
	// Cut each record just behind the presence byte of its log or of its
	// shipped floors (a nil map is one byte), then claim 2^40 entries.
	emptyLog := AppendRecord(nil, &Record{Key: key("c", 1), Log: []Entry{}})
	emptyShipped := AppendRecord(nil, &Record{Key: key("c", 1), Shipped: map[Stream]uint64{}})
	for name, prefix := range map[string][]byte{
		"log":     emptyLog[:len(emptyLog)-3],
		"shipped": emptyShipped[:len(emptyShipped)-1],
	} {
		if prefix[len(prefix)-1] != 1 {
			t.Fatalf("%s: the prefix does not end at a presence byte: % x", name, prefix)
		}
		hostile := binary.AppendUvarint(append([]byte(nil), prefix...), 1<<40)
		hostile = append(hostile, make([]byte, 16)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeRecord(hostile)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a claim of 2^40 entries in %d bytes decoded", name, len(hostile))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
			t.Errorf("%s: decoding a %d-byte hostile record allocated %d bytes", name, len(hostile), grew)
		}
	}
}

// FuzzDecodeRecord: no input panics the decoder, and every record it
// accepts re-encodes to bytes that decode to an equal record.
func FuzzDecodeRecord(f *testing.F) {
	f.Add(AppendRecord(nil, fullRecord()))
	f.Add(AppendRecord(nil, regenRecord()))
	f.Add(AppendRecord(nil, &Record{}))
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := DecodeRecord(b)
		if err != nil {
			return
		}
		again, err := DecodeRecord(AppendRecord(nil, rec))
		if err != nil {
			t.Fatalf("an accepted record re-encodes to bytes that fail: %v", err)
		}
		if !reflect.DeepEqual(rec, again) {
			t.Fatalf("re-encoded record differs:\n got %+v\nwant %+v", again, rec)
		}
	})
}

func TestStoreCommitOrdering(t *testing.T) {
	st := &Store{}
	k := key("w", 0)
	if !st.Commit(&Record{Key: k, Seq: 2}) {
		t.Fatal("first commit rejected")
	}
	if st.Commit(&Record{Key: k, Seq: 1}) {
		t.Fatal("stale commit accepted")
	}
	if st.Commit(&Record{Key: k, Seq: 2}) {
		t.Fatal("same-seq commit accepted")
	}
	if !st.Commit(&Record{Key: k, Seq: 5}) {
		t.Fatal("newer commit rejected")
	}
	if got := st.Latest(k); got == nil || got.Seq != 5 {
		t.Fatalf("latest = %+v", got)
	}
	if st.Latest(key("w", 1)) != nil {
		t.Fatal("phantom record")
	}
	if st.Len() != 1 {
		t.Fatalf("store len %d", st.Len())
	}
}

func TestDetectorFoldsReports(t *testing.T) {
	d := &Detector{}
	if d.IsDead("a") {
		t.Fatal("fresh detector knows a death")
	}
	if !d.MarkDead("a") {
		t.Fatal("first report must win")
	}
	if d.MarkDead("a") {
		t.Fatal("second report must fold")
	}
	if !d.IsDead("a") || d.IsDead("b") {
		t.Fatal("membership wrong")
	}
	d.MarkDead("b")
	if got := d.Dead(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("dead list %v", got)
	}
}

func TestDerivedStreamProperties(t *testing.T) {
	base := streamOf("workers", 1)
	d1 := DerivedStream(base, streamOf("main", 0))
	d2 := DerivedStream(base, streamOf("main", 1))
	if d1 == d2 {
		t.Fatal("distinct inputs must derive distinct streams")
	}
	if d1 != DerivedStream(base, streamOf("main", 0)) {
		t.Fatal("derivation must be deterministic")
	}
	if d1.Sender != base.Sender || d1.In == 0 {
		t.Fatalf("a derived stream keeps its sender and differs from the base: %+v of %+v", d1, base)
	}
	if DerivedStream(base, Stream{}) != base {
		t.Fatal("an unsequenced input must keep the base stream")
	}
	// Nested derivation stays two words but hashes the whole input stream,
	// its derivation included.
	next := streamOf("next", 0)
	if d3 := DerivedStream(next, d1); d3.Sender != next.Sender || d3 == DerivedStream(next, base) {
		t.Fatalf("nested derivation lost its sender or the input's derivation: %+v", d3)
	}
	// A sender resolves to its name and thread; a node never shares an
	// instance's sender.
	if name, thread := SplitSender(base.Sender); name != streamOf("workers", 0).Sender || thread != 1 {
		t.Fatalf("SplitSender(%#x) = %#x, %d", base.Sender, name, thread)
	}
	if nodeStream("workers") == streamOf("workers", 0) {
		t.Fatal("a node and a collection of one name share a sender")
	}
}
