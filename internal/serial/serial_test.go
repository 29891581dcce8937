package serial

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

type simpleToken struct {
	Chr byte
	Pos int
}

type nested struct {
	Name string
	Vals []float64
}

type complexToken struct {
	ID       int
	Name     string
	Children []nested
	ABuffer  []int
	Tags     map[string]int
	Opt      *nested
	Ratio    float64
	Flags    [3]bool
	hidden   int // unexported: must be skipped
	Skipped  int `dps:"-"`
}

func newTestRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	if err := Register[simpleToken](r); err != nil {
		t.Fatal(err)
	}
	if err := Register[complexToken](r); err != nil {
		t.Fatal(err)
	}
	return r
}

func roundTrip(t *testing.T, r *Registry, v any) any {
	t.Helper()
	data, err := r.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %T: %v", v, err)
	}
	out, n, err := r.Unmarshal(data)
	if err != nil {
		t.Fatalf("unmarshal %T: %v", v, err)
	}
	if n != len(data) {
		t.Fatalf("unmarshal consumed %d of %d bytes", n, len(data))
	}
	return out
}

func TestRoundTripSimple(t *testing.T) {
	r := newTestRegistry(t)
	in := &simpleToken{Chr: 'a', Pos: 42}
	out := roundTrip(t, r, in).(*simpleToken)
	if *out != *in {
		t.Fatalf("got %+v want %+v", out, in)
	}
}

func TestRoundTripComplex(t *testing.T) {
	r := newTestRegistry(t)
	in := &complexToken{
		ID:       -7,
		Name:     "hello world",
		Children: []nested{{Name: "a", Vals: []float64{1, 2.5, -3}}, {Name: "b"}},
		ABuffer:  []int{1 << 40, -5, 0},
		Tags:     map[string]int{"x": 1, "y": -2},
		Opt:      &nested{Name: "opt", Vals: []float64{math.Pi}},
		Ratio:    math.Inf(1),
		Flags:    [3]bool{true, false, true},
		hidden:   99,
		Skipped:  77,
	}
	out := roundTrip(t, r, in).(*complexToken)
	if out.hidden != 0 {
		t.Errorf("unexported field was serialized: %d", out.hidden)
	}
	if out.Skipped != 0 {
		t.Errorf("dps:\"-\" field was serialized: %d", out.Skipped)
	}
	in2 := *in
	in2.hidden = 0
	in2.Skipped = 0
	if !reflect.DeepEqual(*out, in2) {
		t.Fatalf("got %+v want %+v", out, in2)
	}
}

func TestRoundTripZeroValue(t *testing.T) {
	r := newTestRegistry(t)
	out := roundTrip(t, r, &complexToken{}).(*complexToken)
	if !reflect.DeepEqual(*out, complexToken{}) {
		t.Fatalf("zero value not preserved: %+v", out)
	}
}

func TestNilVsEmptySlice(t *testing.T) {
	r := newTestRegistry(t)
	in := &complexToken{ABuffer: []int{}}
	out := roundTrip(t, r, in).(*complexToken)
	if out.ABuffer == nil || len(out.ABuffer) != 0 {
		t.Fatalf("empty slice not preserved: %#v", out.ABuffer)
	}
	in2 := &complexToken{}
	out2 := roundTrip(t, r, in2).(*complexToken)
	if out2.ABuffer != nil {
		t.Fatalf("nil slice not preserved: %#v", out2.ABuffer)
	}
}

func TestCanonicalMapEncoding(t *testing.T) {
	r := newTestRegistry(t)
	in := &complexToken{Tags: map[string]int{"a": 1, "b": 2, "c": 3, "d": 4}}
	b1, err := r.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		b2, err := r.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatal("map encoding is not canonical")
		}
	}
}

func TestMarshalValueAndPointer(t *testing.T) {
	r := newTestRegistry(t)
	v := simpleToken{Chr: 'x', Pos: 9}
	b1, err := r.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := r.Marshal(&v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("value and pointer encodings differ")
	}
}

func TestUnregisteredType(t *testing.T) {
	r := NewRegistry()
	type unregistered struct{ X int }
	if _, err := r.Marshal(&unregistered{}); err == nil {
		t.Fatal("expected error for unregistered type")
	}
}

func TestRegisterRejectsNonStruct(t *testing.T) {
	r := NewRegistry()
	if err := r.RegisterName("int", reflect.TypeOf(0)); err == nil {
		t.Fatal("expected error registering non-struct")
	}
}

func TestRegisterRejectsUnsupportedField(t *testing.T) {
	type bad struct{ F func() }
	r := NewRegistry()
	if err := Register[bad](r); err == nil {
		t.Fatal("expected error registering struct with func field")
	} else if !strings.Contains(err.Error(), "unsupported") {
		t.Fatalf("unexpected error: %v", err)
	}
	// The error names the path to the offending field, through maps,
	// slices and pointers, and keys as well as values.
	type inner struct {
		OK int
		C  chan int
	}
	type deep struct {
		M map[string][]*inner
	}
	type badKey struct {
		M map[any]int
	}
	for _, c := range []struct {
		err  error
		want string
	}{
		{Register[deep](r), "field M: field C: unsupported kind chan"},
		{Register[badKey](r), "field M: unsupported kind interface"},
	} {
		if c.err == nil || !strings.HasSuffix(c.err.Error(), c.want) {
			t.Fatalf("error %v, want one ending in %q", c.err, c.want)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("failed registrations left %d types registered", r.Len())
	}
}

func TestRegisterNameConflict(t *testing.T) {
	r := NewRegistry()
	if err := r.RegisterName("tok", reflect.TypeOf(simpleToken{})); err != nil {
		t.Fatal(err)
	}
	// Same name, same type: ok (idempotent).
	if err := r.RegisterName("tok", reflect.TypeOf(simpleToken{})); err != nil {
		t.Fatalf("re-registering same pair: %v", err)
	}
	// Same name, different type: error.
	if err := r.RegisterName("tok", reflect.TypeOf(nested{})); err == nil {
		t.Fatal("expected name conflict error")
	}
	// Same type, different name: error.
	if err := r.RegisterName("tok2", reflect.TypeOf(simpleToken{})); err == nil {
		t.Fatal("expected type conflict error")
	}
}

func TestTruncatedInput(t *testing.T) {
	r := newTestRegistry(t)
	data, err := r.Marshal(&complexToken{Name: "abcdefgh", ABuffer: []int{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		if _, _, err := r.Unmarshal(data[:cut]); err == nil {
			// Truncation may still decode successfully if the cut lands after
			// all fields of a prefix-complete value; but for this payload every
			// strict prefix must fail since trailing fields are non-zero.
			t.Fatalf("expected error unmarshalling %d/%d bytes", cut, len(data))
		}
	}
}

// blobToken carries byte slices at every depth a decoder reaches them.
type blobToken struct {
	ID    uint8
	A     []byte
	Inner struct{ Raw []byte }
	P     *struct{ Raw []byte }
	M     map[uint8][]byte
}

// TestUnmarshalCopiesEveryField: no decoded slice refers to the input, so
// the caller may overwrite or recycle it the moment Unmarshal returns.
func TestUnmarshalCopiesEveryField(t *testing.T) {
	r := NewRegistry()
	if err := Register[blobToken](r); err != nil {
		t.Fatal(err)
	}
	tok := &blobToken{ID: 1, A: bytes.Repeat([]byte{1}, 64<<10), M: map[uint8][]byte{2: {2, 2}}}
	tok.Inner.Raw = bytes.Repeat([]byte{3}, 100)
	tok.P = &struct{ Raw []byte }{Raw: bytes.Repeat([]byte{4}, 5000)}
	data, err := r.Marshal(tok)
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := r.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] ^= 0xff
	}
	if !reflect.DeepEqual(v, tok) {
		t.Fatal("overwriting the input changed the decoded value")
	}
}

// TestUnmarshalClaimedLength: a length prefix is believed only as far as
// bytes are present, so a hostile claim is refused before it allocates.
func TestUnmarshalClaimedLength(t *testing.T) {
	r := NewRegistry()
	if err := Register[blobToken](r); err != nil {
		t.Fatal(err)
	}
	lie := []byte{0, 1, 1}                           // blobToken, ID 1, A present ...
	lie = binary.AppendUvarint(lie, 1<<29)           // ... claiming 512 MiB
	lie = append(lie, bytes.Repeat([]byte{7}, 9)...) // with nine bytes behind the claim
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := r.Unmarshal(lie)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 512 MiB claim over nine bytes decoded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("a %d-byte input allocated %d bytes", len(lie), grew)
	}
}

func TestUnknownTypeID(t *testing.T) {
	r := newTestRegistry(t)
	if _, _, err := r.Unmarshal([]byte{0xFF, 0x7F}); err == nil {
		t.Fatal("expected unknown type id error")
	}
}

func TestEncodedSize(t *testing.T) {
	r := newTestRegistry(t)
	v := &complexToken{Name: "size", ABuffer: []int{1, 2, 3}}
	n, err := r.EncodedSize(v)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := r.Marshal(v)
	if n != len(b) {
		t.Fatalf("EncodedSize %d != len(Marshal) %d", n, len(b))
	}
}

func TestAppendExtends(t *testing.T) {
	r := newTestRegistry(t)
	prefix := []byte("prefix")
	out, err := r.Append(prefix, &simpleToken{Chr: 1, Pos: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(out, prefix) {
		t.Fatal("Append did not preserve prefix")
	}
	got, _, err := r.Unmarshal(out[len(prefix):])
	if err != nil {
		t.Fatal(err)
	}
	if *(got.(*simpleToken)) != (simpleToken{Chr: 1, Pos: 2}) {
		t.Fatalf("got %+v", got)
	}
}

// quickToken exercises the codec under testing/quick.
type quickToken struct {
	A int64
	B uint32
	C string
	D []byte
	E []float64
	F map[int32]string
	G *quickInner
	H bool
	I float32
}

type quickInner struct {
	X int16
	Y string
}

func TestQuickRoundTrip(t *testing.T) {
	r := NewRegistry()
	if err := Register[quickToken](r); err != nil {
		t.Fatal(err)
	}
	f := func(a int64, b uint32, c string, d []byte, e []float64, fk []int32, fv []string, hasG bool, x int16, y string, h bool, i float32) bool {
		in := &quickToken{A: a, B: b, C: c, D: d, E: e, H: h, I: i}
		if len(fk) > 0 {
			in.F = make(map[int32]string)
			for j, k := range fk {
				if j < len(fv) {
					in.F[k] = fv[j]
				} else {
					in.F[k] = ""
				}
			}
		}
		if hasG {
			in.G = &quickInner{X: x, Y: y}
		}
		data, err := r.Marshal(in)
		if err != nil {
			t.Logf("marshal: %v", err)
			return false
		}
		outAny, n, err := r.Unmarshal(data)
		if err != nil {
			t.Logf("unmarshal: %v", err)
			return false
		}
		if n != len(data) {
			return false
		}
		out := outAny.(*quickToken)
		// NaN floats compare unequal; normalize.
		if math.IsNaN(float64(in.I)) && math.IsNaN(float64(out.I)) {
			in.I, out.I = 0, 0
		}
		for j := range in.E {
			if j < len(out.E) && math.IsNaN(in.E[j]) && math.IsNaN(out.E[j]) {
				in.E[j], out.E[j] = 0, 0
			}
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMarshalDeterministic(t *testing.T) {
	r := NewRegistry()
	if err := Register[quickToken](r); err != nil {
		t.Fatal(err)
	}
	f := func(a int64, c string, d []byte) bool {
		in := &quickToken{A: a, C: c, D: d, F: map[int32]string{1: c, -2: "z", 7: ""}}
		b1, err1 := r.Marshal(in)
		b2, err2 := r.Marshal(in)
		return err1 == nil && err2 == nil && bytes.Equal(b1, b2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultRegistryMustRegister(t *testing.T) {
	type mustTok struct{ N int }
	_ = MustRegister[mustTok]()
	// idempotent
	_ = MustRegister[mustTok]()
	b, err := DefaultRegistry.Marshal(&mustTok{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := DefaultRegistry.Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.(*mustTok).N != 5 {
		t.Fatalf("got %+v", out)
	}
}

func BenchmarkMarshalSmall(b *testing.B) {
	r := NewRegistry()
	if err := Register[simpleToken](r); err != nil {
		b.Fatal(err)
	}
	v := &simpleToken{Chr: 'q', Pos: 123456}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = r.Append(buf[:0], v)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshalLargeBuffer(b *testing.B) {
	type blockTok struct {
		Row, Col int
		Data     []float64
	}
	r := NewRegistry()
	if err := Register[blockTok](r); err != nil {
		b.Fatal(err)
	}
	v := &blockTok{Row: 1, Col: 2, Data: make([]float64, 64*64)}
	var buf []byte
	b.ReportAllocs()
	b.SetBytes(int64(len(v.Data) * 8))
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = r.Append(buf[:0], v)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestRegistryReadsDuringRegister: encoding and decoding take no lock, so
// a token must round-trip, and every type counted by Len resolve, while
// registrations replace the registry's table. Run under -race, which also
// checks that no published table is written after it is stored.
func TestRegistryReadsDuringRegister(t *testing.T) {
	const types = 300
	r := NewRegistry()
	if err := Register[nested](r); err != nil {
		t.Fatal(err)
	}
	in := &nested{Name: "row", Vals: []float64{1, 2, 3}}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				buf, err := r.Marshal(in)
				if err != nil {
					t.Error(err)
					return
				}
				out, _, err := r.Unmarshal(buf)
				if err != nil || !reflect.DeepEqual(out, in) {
					t.Errorf("round trip gave %v, %v", out, err)
					return
				}
				n := r.Len()
				if _, ok := r.TypeByName(fmt.Sprintf("gen%d", n-2)); n > 1 && !ok {
					t.Errorf("Len is %d but type %d does not resolve", n, n-2)
					return
				}
			}
		}()
	}
	for i := 0; i < types; i++ {
		typ := reflect.StructOf([]reflect.StructField{{Name: fmt.Sprintf("F%d", i), Type: reflect.TypeOf(0)}})
		if err := r.RegisterName(fmt.Sprintf("gen%d", i), typ); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if n := r.Len(); n != types+1 {
		t.Fatalf("Len = %d after %d registrations", n, types+1)
	}
}
