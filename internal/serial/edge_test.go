package serial

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// Edge cases of the codec: embedded structs, arrays of structs, nested
// maps, recursive types via pointers, deep nesting, and special float
// values — everything a DPS data object may legitimately contain.

type embeddedBase struct {
	ID int
}

type withEmbedded struct {
	embeddedBase // unexported embedded: skipped (field name is lowercase? no: type name)
	Base         embeddedBase
	Name         string
}

type arrayOfStructs struct {
	Grid [2][3]point
}

type point struct {
	X, Y float64
}

type nestedMaps struct {
	ByName map[string]map[int]point
}

type linkedNode struct {
	Value int
	Next  *linkedNode
}

type deepNest struct {
	A struct {
		B struct {
			C struct {
				D []string
			}
		}
	}
}

type floatEdge struct {
	Vals []float64
	F32  float32
}

func edgeRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	for _, err := range []error{
		Register[withEmbedded](r),
		Register[arrayOfStructs](r),
		Register[nestedMaps](r),
		Register[linkedNode](r),
		Register[deepNest](r),
		Register[floatEdge](r),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func edgeRoundTrip(t *testing.T, r *Registry, v any) any {
	t.Helper()
	b, err := r.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %T: %v", v, err)
	}
	out, n, err := r.Unmarshal(b)
	if err != nil {
		t.Fatalf("unmarshal %T: %v", v, err)
	}
	if n != len(b) {
		t.Fatalf("%T: consumed %d of %d bytes", v, n, len(b))
	}
	return out
}

func TestEmbeddedStruct(t *testing.T) {
	r := edgeRegistry(t)
	in := &withEmbedded{Base: embeddedBase{ID: 9}, Name: "emb"}
	in.embeddedBase.ID = 5 // embedded field is exported through the type
	out := edgeRoundTrip(t, r, in).(*withEmbedded)
	if out.Name != "emb" || out.Base.ID != 9 {
		t.Fatalf("got %+v", out)
	}
}

func TestArrayOfStructs(t *testing.T) {
	r := edgeRegistry(t)
	in := &arrayOfStructs{}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			in.Grid[i][j] = point{X: float64(i), Y: float64(j) / 3}
		}
	}
	out := edgeRoundTrip(t, r, in).(*arrayOfStructs)
	if !reflect.DeepEqual(in.Grid, out.Grid) {
		t.Fatalf("grid differs: %+v", out.Grid)
	}
}

func TestNestedMaps(t *testing.T) {
	r := edgeRegistry(t)
	in := &nestedMaps{ByName: map[string]map[int]point{
		"a": {1: {X: 1}, 2: {Y: 2}},
		"b": {},
		"c": nil,
	}}
	out := edgeRoundTrip(t, r, in).(*nestedMaps)
	if !reflect.DeepEqual(in.ByName["a"], out.ByName["a"]) {
		t.Fatalf("map a differs: %+v", out.ByName)
	}
	if out.ByName["b"] == nil || len(out.ByName["b"]) != 0 {
		t.Fatal("empty inner map not preserved")
	}
	if out.ByName["c"] != nil {
		t.Fatal("nil inner map not preserved")
	}
}

func TestRecursiveTypeViaPointers(t *testing.T) {
	r := edgeRegistry(t)
	in := &linkedNode{Value: 1, Next: &linkedNode{Value: 2, Next: &linkedNode{Value: 3}}}
	out := edgeRoundTrip(t, r, in).(*linkedNode)
	vals := []int{}
	for n := out; n != nil; n = n.Next {
		vals = append(vals, n.Value)
	}
	if !reflect.DeepEqual(vals, []int{1, 2, 3}) {
		t.Fatalf("chain = %v", vals)
	}
}

func TestDeeplyNestedAnonymousStructs(t *testing.T) {
	r := edgeRegistry(t)
	in := &deepNest{}
	in.A.B.C.D = []string{"x", "", "zz"}
	out := edgeRoundTrip(t, r, in).(*deepNest)
	if !reflect.DeepEqual(in.A.B.C.D, out.A.B.C.D) {
		t.Fatalf("got %+v", out.A.B.C.D)
	}
}

func TestFloatSpecials(t *testing.T) {
	r := edgeRegistry(t)
	in := &floatEdge{
		Vals: []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64},
		F32:  float32(math.Inf(-1)),
	}
	out := edgeRoundTrip(t, r, in).(*floatEdge)
	for i, v := range in.Vals {
		got := out.Vals[i]
		if math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("val %d: %x != %x", i, math.Float64bits(got), math.Float64bits(v))
		}
	}
	if !math.IsInf(float64(out.F32), -1) {
		t.Fatalf("F32 = %v", out.F32)
	}
}

func TestNaNRoundTrip(t *testing.T) {
	r := edgeRegistry(t)
	in := &floatEdge{Vals: []float64{math.NaN()}}
	out := edgeRoundTrip(t, r, in).(*floatEdge)
	if !math.IsNaN(out.Vals[0]) {
		t.Fatalf("NaN lost: %v", out.Vals[0])
	}
}

func TestRegistryLenAndNames(t *testing.T) {
	r := edgeRegistry(t)
	if r.Len() != 6 {
		t.Fatalf("Len = %d", r.Len())
	}
	name, err := r.NameOf(&point{})
	if err == nil {
		t.Fatalf("unregistered type resolved to %q", name)
	}
	name, err = r.NameOf(&withEmbedded{})
	if err != nil {
		t.Fatal(err)
	}
	typ, ok := r.TypeByName(name)
	if !ok || typ != reflect.TypeOf(withEmbedded{}) {
		t.Fatalf("TypeByName(%q) = %v, %v", name, typ, ok)
	}
	if _, ok := r.TypeByName("nope"); ok {
		t.Fatal("bogus name resolved")
	}
}

// mapKinds has a map for each way the wire orders keys — by number, false
// before true, bytewise, and by fmt.Sprint text — with values that take the
// other codecs: nil and empty slices, nil pointers, nested and nil maps.
type mapKinds struct {
	Bools  map[bool]string
	Int8s  map[int8]uint16
	Uints  map[uint64][]int
	Floats map[float32][]byte
	Strs   map[string]*point
	Arrays map[[2]int]float64
	Points map[point]bool
	Cplx   map[complex128]int8
	Nested map[string]map[uint16]point
}

// tree is recursive through a slice and a map, not only through a pointer.
type tree struct {
	Name   string
	Kids   []tree
	ByName map[string]*tree
}

func randomMaps(rng *rand.Rand) *mapKinds {
	v := &mapKinds{
		Bools:  map[bool]string{},
		Int8s:  map[int8]uint16{},
		Uints:  map[uint64][]int{},
		Floats: map[float32][]byte{},
		Strs:   map[string]*point{},
		Arrays: map[[2]int]float64{},
		Points: map[point]bool{},
		Cplx:   map[complex128]int8{},
	}
	if rng.Intn(4) != 0 {
		v.Nested = map[string]map[uint16]point{}
	}
	for i := rng.Intn(8); i > 0; i-- {
		f := float64(rng.Intn(7) - 3)
		v.Bools[rng.Intn(2) == 0] = fmt.Sprint(rng.Intn(100))
		v.Int8s[int8(rng.Intn(256))] = uint16(rng.Intn(1 << 16))
		var ints []int
		if rng.Intn(3) != 0 {
			ints = make([]int, rng.Intn(3))
		}
		v.Uints[rng.Uint64()] = ints
		v.Floats[float32(f)/2] = bytes.Repeat([]byte{byte(i)}, rng.Intn(3))
		var p *point
		if rng.Intn(3) != 0 {
			p = &point{X: f}
		}
		v.Strs[fmt.Sprint(rng.Intn(100))] = p
		v.Arrays[[2]int{rng.Intn(20) - 10, rng.Intn(3)}] = f
		v.Points[point{X: f, Y: float64(rng.Intn(3))}] = rng.Intn(2) == 0
		v.Cplx[complex(f, float64(rng.Intn(3)))] = int8(i)
		if v.Nested != nil {
			v.Nested[fmt.Sprint(i)] = map[uint16]point{uint16(rng.Intn(9)): {Y: f}}
		}
	}
	return v
}

// TestMapsMatchReference holds the compiled map codecs to the reference
// codec byte for byte, on every key order and on a type recursive through a
// slice and a map, and both decoders to the value encoded.
func TestMapsMatchReference(t *testing.T) {
	r := NewRegistry()
	for _, err := range []error{Register[mapKinds](r), Register[tree](r)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	leaf := &tree{Name: "leaf"}
	values := []any{
		&mapKinds{},
		&tree{Name: "root", ByName: map[string]*tree{"leaf": leaf}, Kids: []tree{
			{Name: "a", ByName: map[string]*tree{"l": leaf, "n": nil}},
			{Name: "b", Kids: []tree{}, ByName: map[string]*tree{}},
		}},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		values = append(values, randomMaps(rng))
	}
	for _, v := range values {
		got, err := r.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := r.marshalReference(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%T: wire bytes diverged:\ncompiled  %x\nreference %x", v, got, want)
		}
		if n, err := r.EncodedSize(v); err != nil || n != len(got) {
			t.Fatalf("EncodedSize = %d, %v; Marshal wrote %d bytes", n, err, len(got))
		}
		if out := edgeRoundTrip(t, r, v); !reflect.DeepEqual(out, v) {
			t.Fatalf("compiled round trip changed the value:\ngot  %+v\nwant %+v", out, v)
		}
		if ref, _, err := r.unmarshalReference(got); err != nil || !reflect.DeepEqual(ref, v) {
			t.Fatalf("reference decode: %v\ngot  %+v\nwant %+v", err, ref, v)
		}
	}
}
