package place

import (
	"reflect"
	"strconv"
	"sync"
	"testing"
)

func TestTableEpochs(t *testing.T) {
	var tb Table
	if tb.Epoch() != 0 || tb.Len() != 0 {
		t.Fatal("zero table must be empty at epoch 0")
	}
	if _, ok := tb.NodeOf(0); ok {
		t.Fatal("NodeOf on empty table")
	}
	if e := tb.Set([]string{"a", "a", "b"}); e != 1 {
		t.Fatalf("first Set -> epoch %d", e)
	}
	if n, ok := tb.NodeOf(2); !ok || n != "b" {
		t.Fatalf("NodeOf(2) = %q, %v", n, ok)
	}
	if _, ok := tb.NodeOf(3); ok {
		t.Fatal("NodeOf out of range succeeded")
	}
	e, err := tb.SetThread(1, "c")
	if err != nil || e != 2 {
		t.Fatalf("SetThread -> %d, %v", e, err)
	}
	if _, err := tb.SetThread(9, "c"); err == nil {
		t.Fatal("SetThread out of range succeeded")
	}
	epoch, nodes := tb.Snapshot()
	if epoch != 2 || !reflect.DeepEqual(nodes, []string{"a", "c", "b"}) {
		t.Fatalf("snapshot = %d %v", epoch, nodes)
	}
	// Snapshot is a copy.
	nodes[0] = "x"
	if n, _ := tb.NodeOf(0); n != "a" {
		t.Fatal("snapshot aliases the table")
	}
}

func TestPlan(t *testing.T) {
	moves, err := Plan([]string{"a", "b", "c"}, []string{"a", "c", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(moves, []Move{{Thread: 1, From: "b", To: "c"}}) {
		t.Fatalf("moves = %v", moves)
	}
	if moves, _ := Plan([]string{"a"}, []string{"a"}); moves != nil {
		t.Fatalf("no-op plan returned %v", moves)
	}
	if _, err := Plan([]string{"a"}, []string{"a", "b"}); err == nil {
		t.Fatal("cardinality change accepted")
	}
}

// TestTableReadsDuringRemap: readers take no lock, so every read must see
// one published version whole. A single writer reassigns one thread per
// epoch, naming it after the epoch it creates; a snapshot of epoch E then
// holds only names of epochs up to E, E among them, and no reader sees the
// epoch go back. Run under -race, which also checks that no published
// version is written after it is stored.
func TestTableReadsDuringRemap(t *testing.T) {
	const threads, writes = 4, 2000
	var tb Table
	tb.Set([]string{"1", "1", "1", "1"})
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				epoch, nodes := tb.Snapshot()
				if epoch < last || len(nodes) != threads || tb.Len() != threads {
					t.Errorf("read epoch %d after %d, %d threads", epoch, last, len(nodes))
					return
				}
				last = epoch
				newest := uint64(0)
				for _, n := range nodes {
					e, _ := strconv.ParseUint(n, 10, 64)
					newest = max(newest, e)
				}
				if newest != epoch {
					t.Errorf("snapshot of epoch %d holds %v", epoch, nodes)
					return
				}
				if _, ok := tb.NodeOf(threads - 1); !ok || tb.Epoch() < epoch {
					t.Errorf("NodeOf or Epoch read an older version than epoch %d", epoch)
					return
				}
			}
		}()
	}
	for w := 0; w < writes; w++ {
		next := strconv.FormatUint(tb.Epoch()+1, 10)
		if _, err := tb.SetThread(w%threads, next); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}
