package ft

import (
	"reflect"
	"testing"
)

func TestSnapshotRegenHappyPath(t *testing.T) {
	s := NewState(streamOf("w", 0))
	a := key("c", 0)
	st := DerivedStream(s.Stream(), up)
	for in := uint64(1); in <= 3; in++ {
		s.CheckIn(up, in)
		seq := s.NextOut(st, a)
		s.Append(Entry{Stream: st, Dst: a, Seq: seq, InStream: up, InSeq: in, Kind: EntryToken, Bytes: []byte("payload")})
	}

	rec, ok := s.SnapshotRegen()
	if !ok {
		t.Fatal("regenerative snapshot refused on a clean pipeline")
	}
	if len(rec.Log) != 0 {
		t.Fatalf("regenerative record carries %d log entries", len(rec.Log))
	}
	// Every retained output's input must be replayed: cursor rewound below
	// the earliest live entry's input.
	if got := rec.In[up]; got != 0 {
		t.Fatalf("rewound cursor = %d, want 0", got)
	}
	// Out restored to the cut watermark so regenerated outputs collide with
	// the originals in the receivers' duplicate filters.
	if got := rec.Out[OutKey{Stream: st, Dst: a}]; got != 0 {
		t.Fatalf("restored out counter = %d, want 0", got)
	}

	// Restoring the record and re-processing inputs 1..3 must reassign the
	// exact original sequence numbers.
	r2 := NewState(streamOf("w", 0))
	r2.Restore(rec)
	for want := uint64(1); want <= 3; want++ {
		if got := r2.NextOut(st, a); got != want {
			t.Fatalf("regenerated seq = %d, want %d", got, want)
		}
	}
}

func TestSnapshotRegenAfterCut(t *testing.T) {
	s := NewState(streamOf("w", 0))
	a := key("c", 0)
	st := DerivedStream(s.Stream(), up)
	for in := uint64(1); in <= 4; in++ {
		s.CheckIn(up, in)
		seq := s.NextOut(st, a)
		s.Append(Entry{Stream: st, Dst: a, Seq: seq, InStream: up, InSeq: in, Kind: EntryToken})
	}
	// Receiver checkpointed through output 2: outputs of inputs 1..2 cut.
	if n := s.Cut(st, a, 2); n != 2 {
		t.Fatalf("cut dropped %d", n)
	}

	rec, ok := s.SnapshotRegen()
	if !ok {
		t.Fatal("regenerative snapshot refused after a clean cut")
	}
	if got := rec.In[up]; got != 2 {
		t.Fatalf("rewound cursor = %d, want 2 (inputs 3..4 re-executed)", got)
	}
	if got := rec.Out[OutKey{Stream: st, Dst: a}]; got != 2 {
		t.Fatalf("restored out counter = %d, want the cut watermark 2", got)
	}

	// The regenerated outputs must reuse sequences 3 and 4.
	r2 := NewState(streamOf("w", 0))
	r2.Restore(rec)
	if got := r2.NextOut(st, a); got != 3 {
		t.Fatalf("first regenerated seq = %d, want 3", got)
	}
}

func TestSnapshotRegenVetoes(t *testing.T) {
	a := key("c", 0)

	t.Run("unattributed entry", func(t *testing.T) {
		s := NewState(streamOf("w", 0))
		st := DerivedStream(s.Stream(), up)
		s.Append(Entry{Stream: st, Dst: a, Seq: s.NextOut(st, a), Kind: EntryToken}) // InSeq zero
		if _, ok := s.SnapshotRegen(); ok {
			t.Fatal("rewound past an output with no input attribution")
		}
	})

	t.Run("poisoned channel", func(t *testing.T) {
		s := NewState(streamOf("w", 0))
		st := DerivedStream(s.Stream(), up)
		// Two different input streams feed one channel: per-channel input
		// attribution is ambiguous, regeneration must refuse.
		s.Append(Entry{Stream: st, Dst: a, Seq: s.NextOut(st, a), InStream: up, InSeq: 1, Kind: EntryToken})
		s.Append(Entry{Stream: st, Dst: a, Seq: s.NextOut(st, a), InStream: other, InSeq: 1, Kind: EntryToken})
		if _, ok := s.SnapshotRegen(); ok {
			t.Fatal("rewound a channel fed by two input streams")
		}
	})

	t.Run("cut above the rewind point", func(t *testing.T) {
		s := NewState(streamOf("w", 0))
		st := DerivedStream(s.Stream(), up)
		// Input 5's output (seq 1) was cut; input 3's output (seq 2) is still
		// live, forcing a rewind to 2 — but re-executing input 5 would then
		// assign its output a FRESH sequence the receivers never saw cut.
		s.Append(Entry{Stream: st, Dst: a, Seq: s.NextOut(st, a), InStream: up, InSeq: 5, Kind: EntryToken})
		s.Append(Entry{Stream: st, Dst: a, Seq: s.NextOut(st, a), InStream: up, InSeq: 3, Kind: EntryToken})
		s.CheckIn(up, 5)
		if n := s.Cut(st, a, 1); n != 1 {
			t.Fatalf("cut dropped %d", n)
		}
		if _, ok := s.SnapshotRegen(); ok {
			t.Fatal("rewound below a cut input: the regenerated copy would be a duplicate delivery")
		}
	})

	t.Run("below the shipped floor", func(t *testing.T) {
		s := NewState(streamOf("w", 0))
		st := DerivedStream(s.Stream(), up)
		// A full snapshot shipped with in["up"]=2: upstream may truncate its
		// log to that point, so inputs 1..2 can never be replayed again.
		s.CheckIn(up, 1)
		s.CheckIn(up, 2)
		_ = s.Snapshot()
		// A still-live output of input 2 would force a rewind to 1 < floor 2.
		s.Append(Entry{Stream: st, Dst: a, Seq: s.NextOut(st, a), InStream: up, InSeq: 2, Kind: EntryToken})
		if _, ok := s.SnapshotRegen(); ok {
			t.Fatal("rewound below the shipped floor")
		}
	})
}

func TestRegenRecordRoundTrip(t *testing.T) {
	s := NewState(streamOf("w", 1))
	a := key("c", 2)
	st := DerivedStream(s.Stream(), up)
	for in := uint64(1); in <= 2; in++ {
		s.CheckIn(up, in)
		s.Append(Entry{Stream: st, Dst: a, Seq: s.NextOut(st, a), InStream: up, InSeq: in, Kind: EntryToken})
	}
	s.Cut(st, a, 2)
	rec, ok := s.SnapshotRegen()
	if !ok {
		t.Fatal("regen refused")
	}
	rec.Key = key("w", 1)
	rec.Seq = 4
	dec, err := DecodeRecord(AppendRecord(nil, rec))
	if err != nil {
		t.Fatal(err)
	}
	// Normalize nil-vs-empty (a log-free record decodes to empty slices).
	if len(dec.Log) == 0 && len(rec.Log) == 0 {
		dec.Log, rec.Log = nil, nil
	}
	if len(dec.State) == 0 && len(rec.State) == 0 {
		dec.State, rec.State = nil, nil
	}
	if !reflect.DeepEqual(rec, dec) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", dec, rec)
	}
	if dec.Chans[OutKey{Stream: st, Dst: a}].CutOut != 2 {
		t.Fatalf("channel marks lost: %+v", dec.Chans)
	}
}

// TestEntryAttributionRoundTrip pins that InStream/InSeq survive the full
// record encoding (they ride in the log section).
func TestEntryAttributionRoundTrip(t *testing.T) {
	s := NewState(streamOf("w", 0))
	a := key("c", 0)
	st := DerivedStream(s.Stream(), up)
	s.Append(Entry{Stream: st, Dst: a, Seq: 1, CallID: 7, InStream: up, InSeq: 9, Kind: EntryToken, Bytes: []byte("b")})
	rec := s.Snapshot()
	dec, err := DecodeRecord(AppendRecord(nil, rec))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Log) != 1 || dec.Log[0].InStream != up || dec.Log[0].InSeq != 9 {
		t.Fatalf("attribution lost: %+v", dec.Log)
	}
}
