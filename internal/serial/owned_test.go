package serial

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// Blob is a named []byte type: the owning decode treats it like []byte.
type Blob []byte

type ownedInner struct {
	N   int8
	Raw []byte
}

// ownedTok is small around its byte slices, so that one of them can be half
// of an encoding (fuzzToken's fixed fields alone encode to ~100 bytes).
type ownedTok struct {
	ID    uint8
	A     []byte
	B     Blob
	Inner ownedInner
	P     *ownedInner
	M     map[uint8][]byte
}

// byteSlices collects every []byte-kind slice reachable from v, map values
// included.
func byteSlices(v reflect.Value, out [][]byte) [][]byte {
	switch v.Kind() {
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			if !v.IsNil() {
				out = append(out, v.Bytes()[:v.Len():v.Cap()])
			}
			return out
		}
		for i := 0; i < v.Len(); i++ {
			out = byteSlices(v.Index(i), out)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			out = byteSlices(v.Index(i), out)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				out = byteSlices(v.Field(i), out)
			}
		}
	case reflect.Pointer:
		if !v.IsNil() {
			out = byteSlices(v.Elem(), out)
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			out = byteSlices(it.Value(), out)
		}
	}
	return out
}

// within reports whether s's backing array, up to its capacity, lies inside
// buf, and overlaps whether the two share any byte.
func within(s, buf []byte) (inside, overlaps bool) {
	if cap(s) == 0 || len(buf) == 0 {
		return false, false
	}
	lo, hi := uintptr(unsafe.Pointer(unsafe.SliceData(buf))), uintptr(unsafe.Pointer(unsafe.SliceData(buf)))+uintptr(len(buf))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	q := p + uintptr(cap(s))
	return p >= lo && q <= hi, p < hi && q > lo
}

// checkOwned runs both decoders over data and holds the owning one to its
// contract against the copying one.
func checkOwned(t *testing.T, r *Registry, data []byte) (kept bool) {
	t.Helper()
	want, wantN, wantErr := r.Unmarshal(data)
	in := bytes.Clone(data) // given away
	got, gotN, kept, err := r.UnmarshalOwned(in)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("owning decode: error %v, copying decode: %v", err, wantErr)
	}
	if err != nil {
		if kept || got != nil || gotN != 0 {
			t.Fatalf("failed owning decode returned (%v, %d, kept=%v)", got, gotN, kept)
		}
		return false
	}
	if gotN != wantN {
		t.Fatalf("owning decode consumed %d bytes, copying decode %d", gotN, wantN)
	}
	// Values compare by re-encoding: NaN payloads defeat DeepEqual.
	encode := func(v any) []byte {
		b, err := r.Marshal(v)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		return b
	}
	wantBytes := encode(want)
	if gotBytes := encode(got); !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("values diverged:\nowning  %x\ncopying %x", gotBytes, wantBytes)
	}
	aliased := 0
	for _, s := range byteSlices(reflect.ValueOf(got), nil) {
		inside, overlaps := within(s, in)
		switch {
		case inside:
			aliased++
			if cap(s) != len(s) {
				t.Fatalf("kept slice has len %d cap %d: an append would write into the frame", len(s), cap(s))
			}
			if 2*len(s) < len(in) {
				t.Fatalf("kept slice of %d bytes is less than half of the %d-byte input", len(s), len(in))
			}
		case overlaps:
			t.Fatalf("a slice straddles the end of the input")
		}
	}
	if kept != (aliased > 0) {
		t.Fatalf("kept = %v with %d fields pointing into the input", kept, aliased)
	}
	if !kept {
		for i := range in {
			in[i] ^= 0xff
		}
		if gotBytes := encode(got); !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("kept = false, yet overwriting the input changed the value")
		}
	}
	return kept
}

func ownedRegistry(t testing.TB) *Registry {
	r := NewRegistry()
	if err := Register[ownedTok](r); err != nil {
		t.Fatal(err)
	}
	if err := Register[fuzzToken](r); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestUnmarshalOwnedHalfRule pins which fields the owning decode keeps: a
// []byte-kind field, at any depth outside a map, that is at least half of
// the bytes given away — and so at most one per value.
func TestUnmarshalOwnedHalfRule(t *testing.T) {
	r := ownedRegistry(t)
	fill := func(n int) []byte { return bytes.Repeat([]byte{0xab}, n) }
	// An ownedTok with n < 128 bytes in A and everything else zero encodes to
	// n + 9 bytes (type ID, ID, A's presence and length, B, Inner.N,
	// Inner.Raw, P, M), so 9 bytes are exactly half and 8 just under.
	cases := []struct {
		name string
		tok  *ownedTok
		kept bool
		at   func(*ownedTok) []byte // the field expected to alias the input
	}{
		{"just under half", &ownedTok{A: fill(8)}, false, nil},
		{"exactly half", &ownedTok{A: fill(9)}, true, func(t *ownedTok) []byte { return t.A }},
		{"nearly all", &ownedTok{A: fill(4096)}, true, func(t *ownedTok) []byte { return t.A }},
		{"nil", &ownedTok{}, false, nil},
		{"empty, not nil", &ownedTok{A: []byte{}}, false, nil},
		{"two fields, equal", &ownedTok{A: fill(100), B: fill(100)}, false, nil},
		{"two fields, one is half", &ownedTok{A: fill(10), B: fill(100)}, true, func(t *ownedTok) []byte { return t.B }},
		{"named type", &ownedTok{B: fill(64)}, true, func(t *ownedTok) []byte { return t.B }},
		{"nested struct", &ownedTok{Inner: ownedInner{Raw: fill(64)}}, true, func(t *ownedTok) []byte { return t.Inner.Raw }},
		{"behind a pointer", &ownedTok{P: &ownedInner{Raw: fill(64)}}, true, func(t *ownedTok) []byte { return t.P.Raw }},
		{"map value", &ownedTok{M: map[uint8][]byte{1: fill(64)}}, false, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data, err := r.Marshal(c.tok)
			if err != nil {
				t.Fatal(err)
			}
			if c.name == "exactly half" && len(data) != 18 {
				t.Fatalf("encoding is %d bytes, the case assumes 18", len(data))
			}
			if kept := checkOwned(t, r, data); kept != c.kept {
				t.Fatalf("kept = %v, want %v (%d-byte encoding)", kept, c.kept, len(data))
			}
			if c.at == nil {
				return
			}
			in := bytes.Clone(data)
			v, _, _, err := r.UnmarshalOwned(in)
			if err != nil {
				t.Fatal(err)
			}
			field := c.at(v.(*ownedTok))
			if inside, _ := within(field, in); !inside {
				t.Fatal("the expected field does not point into the input")
			}
			// The user's append must leave the frame alone.
			tail := bytes.Clone(in)
			_ = append(field, 1, 2, 3)
			if !bytes.Equal(in, tail) {
				t.Fatal("append to a kept slice wrote into the input")
			}
		})
	}
}

// TestUnmarshalOwnedClaimedLength: a length prefix is believed only as far
// as bytes are present, by either decoder — the owning one performs every
// check of the copying one before it aliases anything.
func TestUnmarshalOwnedClaimedLength(t *testing.T) {
	r := ownedRegistry(t)
	lie := []byte{0, 1, 1}                           // ownedTok, ID 1, A present ...
	lie = binary.AppendUvarint(lie, 1<<29)           // ... claiming 512 MiB
	lie = append(lie, bytes.Repeat([]byte{7}, 9)...) // with nine bytes behind the claim
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, kept, err := r.UnmarshalOwned(lie)
	runtime.ReadMemStats(&after)
	if err == nil || kept {
		t.Fatalf("err = %v, kept = %v; want a refusal", err, kept)
	}
	if _, _, werr := r.Unmarshal(lie); werr == nil || werr.Error() != err.Error() {
		t.Fatalf("copying decode says %v, owning decode %v", werr, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("a %d-byte input allocated %d bytes", len(lie), grew)
	}
}

// FuzzDecodeOwned holds the owning decode to the copying one on arbitrary
// bytes: same value, same byte count, same error; kept exactly when a
// []byte field points into the input, and then with cap == len; with kept
// false the input may be overwritten without touching the value.
func FuzzDecodeOwned(f *testing.F) {
	r := ownedRegistry(f)
	seeds := []any{
		&ownedTok{ID: 1, A: bytes.Repeat([]byte{1}, 300)},
		&ownedTok{ID: 2, A: []byte{1, 2}, B: bytes.Repeat([]byte{2}, 40), Inner: ownedInner{Raw: []byte{}}},
		&ownedTok{ID: 3, P: &ownedInner{N: -1, Raw: bytes.Repeat([]byte{3}, 64)}, M: map[uint8][]byte{9: {9}}},
		&ownedTok{},
		&fuzzToken{Bytes: bytes.Repeat([]byte{4}, 512)},
		(&entropy{data: []byte{9, 8, 7, 6, 5, 4, 3, 2, 1}}).token(1),
	}
	for _, tok := range seeds {
		data, err := r.Marshal(tok)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte{0, 1, 1, 0x80, 0x80, 0x80, 0x80, 2, 7, 7, 7}) // a claimed length with nothing behind it
	f.Fuzz(func(t *testing.T, data []byte) {
		checkOwned(t, r, data)
	})
}
