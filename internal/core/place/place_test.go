package place

import (
	"reflect"
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
