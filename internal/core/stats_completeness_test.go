package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core/ft"
	"repro/internal/core/place"
)

// Stats is one declaration that snapshot, Add and the exporter's gauge set
// are derived from by reflection, so a new counter cannot be forgotten in
// any of them. What can still go wrong is the declaration itself: a field
// that is not an int64 (the derivations would panic), a misspelt tag (a
// high-water mark silently summed), or the tag coming off one of the two
// known high-water marks.
func TestStatsDeclaration(t *testing.T) {
	typ := reflect.TypeOf(Stats{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Int64 {
			t.Errorf("Stats.%s is %s; every counter is an int64", f.Name, f.Type)
		}
		if tag := f.Tag.Get("stat"); tag != "" && tag != "max" {
			t.Errorf("Stats.%s has tag stat:%q; the only aggregation tag is \"max\"", f.Name, tag)
		}
	}
	want := map[string]bool{"QueueHighWater": true}
	if got := StatsHighWater(); !reflect.DeepEqual(got, want) {
		t.Errorf("high-water fields = %v, want %v", got, want)
	}
}

// TestStatsAddAndSnapshot drives the two derivations field by field: sums
// add, high-water marks take the maximum in both directions, and a
// snapshot carries every field.
func TestStatsAddAndSnapshot(t *testing.T) {
	highWater := StatsHighWater()
	typ := reflect.TypeOf(Stats{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		add := func(acc, inc int64) int64 {
			s, o := &Stats{}, &Stats{}
			reflect.ValueOf(s).Elem().Field(i).SetInt(acc)
			reflect.ValueOf(o).Elem().Field(i).SetInt(inc)
			s.Add(o)
			return reflect.ValueOf(s).Elem().Field(i).Int()
		}
		if highWater[name] {
			if got := add(2, 3); got != 3 {
				t.Errorf("Add over high-water Stats.%s: 2 then 3 gives %d, want 3", name, got)
			}
			if got := add(5, 3); got != 5 {
				t.Errorf("Add over high-water Stats.%s: 5 then 3 gives %d, want 5", name, got)
			}
		} else if got := add(2, 3); got != 5 {
			t.Errorf("Add over Stats.%s: 2 + 3 gives %d", name, got)
		}
		live := &Stats{}
		reflect.ValueOf(live).Elem().Field(i).SetInt(int64(i) + 1)
		if got := reflect.ValueOf(live.snapshot()).Elem().Field(i).Int(); got != int64(i)+1 {
			t.Errorf("snapshot of Stats.%s = %d, want %d", name, got, i+1)
		}
	}
}

// TestExactlyOnceDropsAreCounted: a sequenced frame delivered twice runs
// once and counts one duplicate, and a cut for a sender this node does not
// host counts one stale cut.
func TestExactlyOnceDropsAreCounted(t *testing.T) {
	l, _, ran := blobLink(t, Config{Checkpoint: time.Hour})
	frame := func(n int, seq uint64) []byte {
		env := tokenEnv(l)
		env.Token, env.FTStream, env.FTSeq = newBlob(n, 40), ft.NodeStream(farNode(l).id), seq
		b, err := l.tokenFrame(env, place.Direct)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	l.handle("far", frame(1, 1))
	l.handle("far", frame(1, 1))
	l.handle("far", frame(2, 2))
	// The instance runs its arrivals in order, so the third has run once the
	// second was judged.
	if first, next := <-ran, <-ran; first.N != 1 || next.N != 2 {
		t.Fatalf("ran tokens %d then %d, want 1 then 2", first.N, next.N)
	}
	if got := l.rt.Stats().DuplicatesDropped; got != 1 {
		t.Fatalf("DuplicatesDropped = %d, want 1", got)
	}

	work, _ := l.rt.app.Collection("blob-work")
	l.handle("far", appendCut(nil, cutMsg{Stream: ft.StreamOf(work.id, 3), DstCollection: "blob-work", Seq: 1}))
	if got := l.rt.Stats().CutsStale; got != 1 {
		t.Fatalf("CutsStale = %d, want 1", got)
	}
	if err := l.rt.app.Err(); err != nil {
		t.Fatal(err)
	}
}
