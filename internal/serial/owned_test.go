package serial

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"
)

// Blob is a named []byte type: the decoder copies it like []byte.
type Blob []byte

type ownedInner struct {
	N   int8
	Raw []byte
}

// ownedTok is small around its byte slices, so that one of them can be most
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

// overlaps reports whether s's backing array, up to its capacity, shares any
// byte with buf.
func overlaps(s, buf []byte) bool {
	if cap(s) == 0 || len(buf) == 0 {
		return false
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	hi := lo + uintptr(len(buf))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return p < hi && p+uintptr(cap(s)) > lo
}

// FuzzDecodeOwned holds the decoder to the receive rule on arbitrary bytes:
// a decoded value owns all of its memory. No []byte field, at any depth,
// points into the input, and overwriting the input leaves the value as it
// was — so a transport may recycle the frame the moment Unmarshal returns.
func FuzzDecodeOwned(f *testing.F) {
	r := NewRegistry()
	if err := Register[ownedTok](r); err != nil {
		f.Fatal(err)
	}
	if err := Register[fuzzToken](r); err != nil {
		f.Fatal(err)
	}
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
		in := bytes.Clone(data)
		v, _, err := r.Unmarshal(in)
		if err != nil {
			return
		}
		for _, s := range byteSlices(reflect.ValueOf(v), nil) {
			if overlaps(s, in) {
				t.Fatalf("a decoded %d-byte slice points into the %d-byte input", len(s), len(in))
			}
		}
		// Values compare by re-encoding: NaN payloads defeat DeepEqual.
		want, err := r.Marshal(v)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		for i := range in {
			in[i] ^= 0xff
		}
		got, err := r.Marshal(v)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("overwriting the input changed the value:\nbefore %x\nafter  %x", want, got)
		}
	})
}
