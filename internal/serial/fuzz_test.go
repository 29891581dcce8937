package serial

import (
	"bytes"
	"math"

	"testing"
)

// fuzzInner exercises nesting through every composite field shape.
type fuzzInner struct {
	Name string
	Vals []float64
	Raw  []byte
	N    int32
}

// fuzzToken covers every kind the codec supports, including recursion
// through a pointer, so the fuzzer can drive both the compiled fast paths
// and the reflection fallbacks over the same values.
type fuzzToken struct {
	I      int
	I8     int8
	I16    int16
	I32    int32
	I64    int64
	U      uint
	U8     uint8
	U16    uint16
	U32    uint32
	U64    uint64
	F32    float32
	F64    float64
	C64    complex64
	C128   complex128
	B      bool
	S      string
	Bytes  []byte
	Ints   []int
	I16s   []int16
	Us     []uint
	U32s   []uint32
	Floats []float64
	F32s   []float32
	Bools  []bool
	Strs   []string
	Inner  fuzzInner
	Nested []fuzzInner
	M      map[string]int
	MI     map[int32][]byte
	P      *fuzzInner
	Next   *fuzzToken // recursive: pointers break the cycle
	Arr    [3]int16
	ArrS   [2]fuzzInner
	hidden int //nolint:unused // must be skipped by the codec
	Skip   int `dps:"-"`
}

// entropy is a deterministic stream of fuzz-provided bytes.
type entropy struct {
	data []byte
	pos  int
}

func (e *entropy) byte() byte {
	if len(e.data) == 0 {
		return 0
	}
	b := e.data[e.pos%len(e.data)]
	e.pos++
	return b
}

func (e *entropy) u64() uint64 {
	var x uint64
	for i := 0; i < 8; i++ {
		x = x<<8 | uint64(e.byte())
	}
	return x
}

func (e *entropy) small(n int) int {
	if n <= 0 {
		return 0
	}
	return int(e.byte()) % n
}

func (e *entropy) str() string {
	b := make([]byte, e.small(12))
	for i := range b {
		b[i] = e.byte()
	}
	return string(b)
}

func (e *entropy) bytes() []byte {
	if e.byte()%4 == 0 {
		return nil
	}
	b := make([]byte, e.small(40))
	for i := range b {
		b[i] = e.byte()
	}
	return b
}

func (e *entropy) inner() fuzzInner {
	in := fuzzInner{Name: e.str(), Raw: e.bytes(), N: int32(e.u64())}
	if e.byte()%3 != 0 {
		in.Vals = make([]float64, e.small(8))
		for i := range in.Vals {
			in.Vals[i] = math.Float64frombits(e.u64())
		}
	}
	return in
}

func (e *entropy) token(depth int) *fuzzToken {
	tok := &fuzzToken{
		I:      int(e.u64()),
		I8:     int8(e.byte()),
		I16:    int16(e.u64()),
		I32:    int32(e.u64()),
		I64:    int64(e.u64()),
		U:      uint(e.u64()),
		U8:     e.byte(),
		U16:    uint16(e.u64()),
		U32:    uint32(e.u64()),
		U64:    e.u64(),
		F32:    math.Float32frombits(uint32(e.u64())),
		F64:    math.Float64frombits(e.u64()),
		C64:    complex(math.Float32frombits(uint32(e.u64())), math.Float32frombits(uint32(e.u64()))),
		C128:   complex(math.Float64frombits(e.u64()), math.Float64frombits(e.u64())),
		B:      e.byte()%2 == 0,
		S:      e.str(),
		Bytes:  e.bytes(),
		Inner:  e.inner(),
		hidden: int(e.byte()),
		Skip:   int(e.byte()),
	}
	if e.byte()%3 != 0 {
		tok.Ints = make([]int, e.small(6))
		for i := range tok.Ints {
			tok.Ints[i] = int(e.u64())
		}
	}
	if e.byte()%3 != 0 {
		tok.I16s = make([]int16, e.small(6))
		for i := range tok.I16s {
			tok.I16s[i] = int16(e.u64())
		}
	}
	if e.byte()%3 != 0 {
		tok.Us = make([]uint, e.small(6))
		for i := range tok.Us {
			tok.Us[i] = uint(e.u64())
		}
	}
	if e.byte()%3 != 0 {
		tok.U32s = make([]uint32, e.small(6))
		for i := range tok.U32s {
			tok.U32s[i] = uint32(e.u64())
		}
	}
	if e.byte()%3 != 0 {
		tok.Floats = make([]float64, e.small(6))
		for i := range tok.Floats {
			tok.Floats[i] = math.Float64frombits(e.u64())
		}
	}
	if e.byte()%3 != 0 {
		tok.F32s = make([]float32, e.small(6))
		for i := range tok.F32s {
			tok.F32s[i] = math.Float32frombits(uint32(e.u64()))
		}
	}
	if e.byte()%3 != 0 {
		tok.Bools = make([]bool, e.small(6))
		for i := range tok.Bools {
			tok.Bools[i] = e.byte()%2 == 0
		}
	}
	if e.byte()%3 != 0 {
		tok.Strs = make([]string, e.small(4))
		for i := range tok.Strs {
			tok.Strs[i] = e.str()
		}
	}
	if e.byte()%3 != 0 {
		tok.Nested = make([]fuzzInner, e.small(3))
		for i := range tok.Nested {
			tok.Nested[i] = e.inner()
		}
	}
	if e.byte()%3 != 0 {
		tok.M = make(map[string]int)
		for i := e.small(5); i > 0; i-- {
			tok.M[e.str()] = int(e.u64())
		}
	}
	if e.byte()%3 != 0 {
		tok.MI = make(map[int32][]byte)
		for i := e.small(4); i > 0; i-- {
			tok.MI[int32(e.u64())] = e.bytes()
		}
	}
	if e.byte()%2 == 0 {
		in := e.inner()
		tok.P = &in
	}
	for i := range tok.Arr {
		tok.Arr[i] = int16(e.u64())
	}
	for i := range tok.ArrS {
		tok.ArrS[i] = e.inner()
	}
	if depth > 0 && e.byte()%2 == 0 {
		tok.Next = e.token(depth - 1)
	}
	return tok
}

// normalize clears fields the codec intentionally skips so DeepEqual
// compares only the serialized surface.
func normalize(tok *fuzzToken) {
	for t := tok; t != nil; t = t.Next {
		t.hidden = 0
		t.Skip = 0
	}
}

// TestSignalingNaNWireCompat pins the float32 NaN-quieting behavior: the
// reference codec widens float32 through float64, which quiets signaling
// NaNs, and the compiled codec must emit and decode identical bytes.
func TestSignalingNaNWireCompat(t *testing.T) {
	type f32Token struct {
		F  float32
		C  complex64
		S  []float32
		F6 float64
	}
	r := NewRegistry()
	if err := Register[f32Token](r); err != nil {
		t.Fatal(err)
	}
	sf := math.Float32frombits(0x7fb80000)         // signaling NaN
	negSf := math.Float32frombits(0xffa00001)      // negative sNaN
	sd := math.Float64frombits(0x7ff0000000000001) // float64 sNaN: passes through raw
	tok := &f32Token{F: sf, C: complex(sf, negSf), S: []float32{1.5, sf, negSf}, F6: sd}
	compiled, err := r.Marshal(tok)
	if err != nil {
		t.Fatal(err)
	}
	reference, err := r.marshalReference(tok)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compiled, reference) {
		t.Fatalf("wire bytes diverged:\ncompiled  %x\nreference %x", compiled, reference)
	}
	got, _, err := r.Unmarshal(compiled)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := r.unmarshalReference(compiled)
	if err != nil {
		t.Fatal(err)
	}
	gb := math.Float32bits(got.(*f32Token).F)
	rb := math.Float32bits(ref.(*f32Token).F)
	if gb != rb {
		t.Fatalf("decoded F bits diverged: compiled %#x reference %#x", gb, rb)
	}
	if g, w := math.Float64bits(got.(*f32Token).F6), math.Float64bits(ref.(*f32Token).F6); g != w {
		t.Fatalf("decoded F6 bits diverged: compiled %#x reference %#x", g, w)
	}
}

// FuzzRoundTrip proves the compiled codec is wire-compatible with the seed
// reflection codec: for any generated token the two encoders must produce
// byte-identical output, and all four encode/decode pairings must round-trip
// to the same value.
func FuzzRoundTrip(f *testing.F) {
	r := NewRegistry()
	if err := Register[fuzzToken](r); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(nil), 0)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 251, 252, 253, 254, 255}, 2)
	f.Add(bytes.Repeat([]byte{0xff}, 64), 3)
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), 1)
	f.Fuzz(func(t *testing.T, data []byte, depth int) {
		if depth < 0 {
			depth = -depth
		}
		tok := (&entropy{data: data}).token(depth % 4)
		normalize(tok)

		compiled, err := r.Marshal(tok)
		if err != nil {
			t.Fatalf("compiled marshal: %v", err)
		}
		reference, err := r.marshalReference(tok)
		if err != nil {
			t.Fatalf("reference marshal: %v", err)
		}
		if !bytes.Equal(compiled, reference) {
			t.Fatalf("wire format diverged:\ncompiled  %x\nreference %x", compiled, reference)
		}
		if sz, err := r.EncodedSize(tok); err != nil || sz != len(compiled) {
			t.Fatalf("EncodedSize = %d, %v; want %d", sz, err, len(compiled))
		}

		decode := func(name string, fn func([]byte) (any, int, error), data []byte) *fuzzToken {
			out, n, err := fn(data)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if n != len(data) {
				t.Fatalf("%s consumed %d of %d bytes", name, n, len(data))
			}
			return out.(*fuzzToken)
		}
		// Compare round-tripped values by re-encoding: NaN payloads make
		// DeepEqual useless, while the canonical encoding preserves exact
		// bit patterns and sorts maps deterministically.
		reencode := func(name string, v any) {
			again, err := r.Marshal(v)
			if err != nil {
				t.Fatalf("%s re-marshal: %v", name, err)
			}
			if !bytes.Equal(again, compiled) {
				t.Fatalf("%s diverged after round trip:\ngot  %x\nwant %x", name, again, compiled)
			}
		}
		reencode("compiled decode", decode("compiled decode", r.Unmarshal, compiled))
		reencode("reference decode of compiled bytes", decode("reference decode", r.unmarshalReference, compiled))
		reencode("compiled decode of reference bytes", decode("cross decode", r.Unmarshal, reference))
	})
}

// FuzzDecodeHostile feeds arbitrary bytes to the compiled decoder: it may
// not panic, and it must accept exactly the inputs the reference decoder
// accepts.
func FuzzDecodeHostile(f *testing.F) {
	r := NewRegistry()
	if err := Register[fuzzToken](r); err != nil {
		f.Fatal(err)
	}
	seedTok := (&entropy{data: []byte{9, 8, 7, 6, 5, 4, 3, 2, 1}}).token(1)
	seed, err := r.Marshal(seedTok)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, _, errC := r.Unmarshal(data)
		ref, _, errR := r.unmarshalReference(data)
		if (errC == nil) != (errR == nil) {
			t.Fatalf("decoder acceptance diverged: compiled err=%v reference err=%v", errC, errR)
		}
		if errC != nil {
			return
		}
		gotBytes, err := r.Marshal(got)
		if err != nil {
			t.Fatalf("re-marshal compiled: %v", err)
		}
		refBytes, err := r.Marshal(ref)
		if err != nil {
			t.Fatalf("re-marshal reference: %v", err)
		}
		if !bytes.Equal(gotBytes, refBytes) {
			t.Fatalf("decoded values diverged:\ncompiled  %+v\nreference %+v", got, ref)
		}
	})
}
