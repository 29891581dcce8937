package serial

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"sort"
	"unsafe"
)

// typeCodec is a compiled encoder/decoder/size program for one Go type.
// It is built once at registration time by walking the type's structure,
// so the per-call hot path touches reflect only to iterate maps and to make
// allocations that must carry the precise Go type for the garbage collector.
type typeCodec struct {
	// enc appends the wire encoding of the value at p.
	enc func(buf []byte, p unsafe.Pointer) []byte
	// dec decodes into the zeroed value at p, returning the bytes consumed.
	// Every field is copied out: nothing decoded refers to data.
	dec func(data []byte, p unsafe.Pointer) (int, error)
	// size returns the exact number of bytes enc would append.
	size func(p unsafe.Pointer) int
	// fixed is the encoded size when it is the same for every value of the
	// type (fixed-width primitives, structs of such), else -1.
	fixed int
}

// sliceHeader mirrors the runtime representation of a slice value.
type sliceHeader struct {
	data unsafe.Pointer
	len  int
	cap  int
}

// quietF32 reproduces the reference codec's float32 handling bit-for-bit:
// reflect widens every float32 through float64 (Value.Float / SetFloat,
// Value.Complex), and the hardware conversion quiets signaling NaNs while
// preserving their payload. The compiled codec must emit and decode the
// same bytes, so it applies the equivalent transform explicitly.
func quietF32(b uint32) uint32 {
	if b&0x7f800000 == 0x7f800000 && b&0x007fffff != 0 {
		b |= 0x00400000
	}
	return b
}

func putBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func getBool(data []byte) bool { return data[0] != 0 }

func putF32(buf []byte, v float32) []byte {
	return binary.LittleEndian.AppendUint32(buf, quietF32(math.Float32bits(v)))
}

func getF32(data []byte) float32 {
	return math.Float32frombits(quietF32(binary.LittleEndian.Uint32(data)))
}

func putF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func getF64(data []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(data)) }

// codecs holds the codec of every type one registration's walk has reached:
// a type shared by several fields compiles once, and a recursive type finds
// its own codec, whose functions are filled in before anything runs them (a
// cycle passes through a pointer, slice or map, whose closures call through
// the codec at run time).
type codecs map[reflect.Type]*typeCodec

// compile builds the codec for t, or reports the first type reachable from
// t that cannot be encoded. It is the only walk of a type's structure, so
// whatever registration accepts, the codec can encode.
func (cs codecs) compile(t reflect.Type) (*typeCodec, error) {
	if c := cs[t]; c != nil {
		return c, nil
	}
	c := &typeCodec{fixed: -1}
	cs[t] = c

	var err error
	switch t.Kind() {
	case reflect.Bool:
		fixedScalar(c, 1, "bool", putBool, getBool)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		intCodec(c, t, false)
	case reflect.Float32:
		fixedScalar(c, 4, "float32", putF32, getF32)
	case reflect.Float64:
		fixedScalar(c, 8, "float64", putF64, getF64)
	case reflect.Complex64:
		fixedScalar(c, 8, "complex64",
			func(buf []byte, v complex64) []byte { return putF32(putF32(buf, real(v)), imag(v)) },
			func(data []byte) complex64 { return complex(getF32(data), getF32(data[4:])) })
	case reflect.Complex128:
		fixedScalar(c, 16, "complex128",
			func(buf []byte, v complex128) []byte { return putF64(putF64(buf, real(v)), imag(v)) },
			func(data []byte) complex128 { return complex(getF64(data), getF64(data[8:])) })
	case reflect.String:
		c.enc = func(buf []byte, p unsafe.Pointer) []byte {
			s := *(*string)(p)
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			return append(buf, s...)
		}
		c.size = func(p unsafe.Pointer) int {
			n := len(*(*string)(p))
			return uvarintLen(uint64(n)) + n
		}
		c.dec = func(data []byte, p unsafe.Pointer) (int, error) {
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return 0, errTruncated("string")
			}
			*(*string)(p) = string(data[n : n+int(l)])
			return n + int(l), nil
		}
	case reflect.Slice:
		err = cs.compileSlice(c, t)
	case reflect.Array:
		err = cs.compileArray(c, t)
	case reflect.Map:
		err = cs.compileMap(c, t)
	case reflect.Pointer:
		err = cs.compilePointer(c, t)
	case reflect.Struct:
		err = cs.compileStruct(c, t)
	default:
		err = fmt.Errorf("unsupported kind %s", t.Kind())
	}
	if err != nil {
		return nil, err
	}
	if c.fixed >= 0 {
		k := c.fixed
		c.size = func(unsafe.Pointer) int { return k }
	}
	return c, nil
}

// fixedScalar fills c for a type whose every value encodes to width bytes.
func fixedScalar[T any](c *typeCodec, width int, what string, put func([]byte, T) []byte, get func([]byte) T) {
	c.fixed = width
	c.enc = func(buf []byte, p unsafe.Pointer) []byte { return put(buf, *(*T)(p)) }
	c.dec = func(data []byte, p unsafe.Pointer) (int, error) {
		if len(data) < width {
			return 0, errTruncated(what)
		}
		*(*T)(p) = get(data)
		return width, nil
	}
}

type signed interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64
}

type unsigned interface {
	~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// intCodec fills c for the integer type t, or with slice for a slice of t,
// from the generic codec of t's family at the built-in type of t's kind,
// whose layout a named integer type shares.
func intCodec(c *typeCodec, t reflect.Type, slice bool) {
	switch t.Kind() {
	case reflect.Int:
		signedCodec[int](c, t, slice)
	case reflect.Int8:
		signedCodec[int8](c, t, slice)
	case reflect.Int16:
		signedCodec[int16](c, t, slice)
	case reflect.Int32:
		signedCodec[int32](c, t, slice)
	case reflect.Int64:
		signedCodec[int64](c, t, slice)
	case reflect.Uint:
		unsignedCodec[uint](c, t, slice)
	case reflect.Uint8:
		unsignedCodec[uint8](c, t, slice)
	case reflect.Uint16:
		unsignedCodec[uint16](c, t, slice)
	case reflect.Uint32:
		unsignedCodec[uint32](c, t, slice)
	case reflect.Uint64:
		unsignedCodec[uint64](c, t, slice)
	}
}

// signedCodec is intCodec for the signed integers: zig-zag varints.
func signedCodec[T signed](c *typeCodec, t reflect.Type, slice bool) {
	if !slice {
		c.enc = func(buf []byte, p unsafe.Pointer) []byte { return binary.AppendVarint(buf, int64(*(*T)(p))) }
		c.size = func(p unsafe.Pointer) int { return varintLen(int64(*(*T)(p))) }
		c.dec = func(data []byte, p unsafe.Pointer) (int, error) { return getSigned(data, (*T)(p), t) }
		return
	}
	c.enc = func(buf []byte, p unsafe.Pointer) []byte {
		s := *(*[]T)(p)
		if s == nil {
			return append(buf, 0)
		}
		buf = appendLen(buf, len(s))
		for _, v := range s {
			buf = binary.AppendVarint(buf, int64(v))
		}
		return buf
	}
	c.size = func(p unsafe.Pointer) int {
		s := *(*[]T)(p)
		if s == nil {
			return 1
		}
		n := lenSize(len(s))
		for _, v := range s {
			n += varintLen(int64(v))
		}
		return n
	}
	c.dec = func(data []byte, p unsafe.Pointer) (int, error) {
		return decodeEach(data, p, t, getSigned[T])
	}
}

// getSigned reads one zig-zag varint into *p. A value outside T's range is
// an error naming t.
func getSigned[T signed](data []byte, p *T, t reflect.Type) (int, error) {
	x, n := binary.Varint(data)
	if n <= 0 {
		return 0, errTruncated("varint")
	}
	if int64(T(x)) != x {
		return 0, fmt.Errorf("serial: value %d overflows %s", x, t)
	}
	*p = T(x)
	return n, nil
}

// unsignedCodec is intCodec for the unsigned integers: plain varints.
func unsignedCodec[T unsigned](c *typeCodec, t reflect.Type, slice bool) {
	if !slice {
		c.enc = func(buf []byte, p unsafe.Pointer) []byte { return binary.AppendUvarint(buf, uint64(*(*T)(p))) }
		c.size = func(p unsafe.Pointer) int { return uvarintLen(uint64(*(*T)(p))) }
		c.dec = func(data []byte, p unsafe.Pointer) (int, error) { return getUnsigned(data, (*T)(p), t) }
		return
	}
	c.enc = func(buf []byte, p unsafe.Pointer) []byte {
		s := *(*[]T)(p)
		if s == nil {
			return append(buf, 0)
		}
		buf = appendLen(buf, len(s))
		for _, v := range s {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
		return buf
	}
	c.size = func(p unsafe.Pointer) int {
		s := *(*[]T)(p)
		if s == nil {
			return 1
		}
		n := lenSize(len(s))
		for _, v := range s {
			n += uvarintLen(uint64(v))
		}
		return n
	}
	c.dec = func(data []byte, p unsafe.Pointer) (int, error) {
		return decodeEach(data, p, t, getUnsigned[T])
	}
}

// getUnsigned reads one varint into *p. A value outside T's range is an
// error naming t.
func getUnsigned[T unsigned](data []byte, p *T, t reflect.Type) (int, error) {
	x, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, errTruncated("uvarint")
	}
	if uint64(T(x)) != x {
		return 0, fmt.Errorf("serial: value %d overflows %s", x, t)
	}
	*p = T(x)
	return n, nil
}

// decodeEach decodes a slice of t into the slice field at p, reading its
// elements one at a time with get.
func decodeEach[T any](data []byte, p unsafe.Pointer, t reflect.Type, get func([]byte, *T, reflect.Type) (int, error)) (int, error) {
	l, used, err := sliceHead(data)
	if err != nil || l < 0 {
		return used, err
	}
	s := make([]T, l)
	for i := range s {
		n, err := get(data[used:], &s[i], t)
		if err != nil {
			return 0, err
		}
		used += n
	}
	*(*[]T)(p) = s
	return used, nil
}

// compileSlice builds slice codecs: a presence byte, then (when not nil)
// the length and the elements. Primitive element kinds take bulk paths — a
// copy or one tight loop over the backing array — instead of an element
// codec call per element. Their decoders allocate backing arrays of the
// built-in type of the element's kind, which is layout- and GC-equivalent
// for these pointer-free elements even when the element type is named.
func (cs codecs) compileSlice(c *typeCodec, t reflect.Type) error {
	et := t.Elem()
	switch et.Kind() {
	case reflect.Uint8:
		fixedSlice(c, 1, "byte slice", func(buf, s []byte) []byte { return append(buf, s...) }, nil)
		c.dec = decodeBytes
	case reflect.Bool:
		fixedSlice(c, 1, "bool slice",
			func(buf []byte, s []bool) []byte {
				for _, v := range s {
					buf = putBool(buf, v)
				}
				return buf
			},
			func(s []bool, data []byte) {
				for i := range s {
					s[i] = getBool(data[i:])
				}
			})
	case reflect.Float32:
		fixedSlice(c, 4, "float32 slice",
			func(buf []byte, s []float32) []byte {
				for _, v := range s {
					buf = putF32(buf, v)
				}
				return buf
			},
			func(s []float32, data []byte) {
				for i := range s {
					s[i] = getF32(data[4*i:])
				}
			})
	case reflect.Float64:
		fixedSlice(c, 8, "float64 slice",
			func(buf []byte, s []float64) []byte {
				for _, v := range s {
					buf = putF64(buf, v)
				}
				return buf
			},
			func(s []float64, data []byte) {
				for i := range s {
					s[i] = getF64(data[8*i:])
				}
			})
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		intCodec(c, et, true)
	default:
		// Strings, structs, nested slices, maps, pointers, complexes: loop
		// the element codec over the backing array.
		ec, err := cs.compile(et)
		if err != nil {
			return err
		}
		esz := et.Size()
		c.enc = func(buf []byte, p unsafe.Pointer) []byte {
			h := (*sliceHeader)(p)
			if h.data == nil {
				return append(buf, 0)
			}
			buf = appendLen(buf, h.len)
			for i := 0; i < h.len; i++ {
				buf = ec.enc(buf, unsafe.Add(h.data, uintptr(i)*esz))
			}
			return buf
		}
		c.size = func(p unsafe.Pointer) int {
			h := (*sliceHeader)(p)
			if h.data == nil {
				return 1
			}
			sz := lenSize(h.len)
			if ec.fixed >= 0 {
				return sz + h.len*ec.fixed
			}
			for i := 0; i < h.len; i++ {
				sz += ec.size(unsafe.Add(h.data, uintptr(i)*esz))
			}
			return sz
		}
		c.dec = func(data []byte, p unsafe.Pointer) (int, error) {
			l, used, err := sliceHead(data)
			if err != nil || l < 0 {
				return used, err
			}
			ms := reflect.MakeSlice(t, l, l)
			base := ms.UnsafePointer()
			for i := 0; i < l; i++ {
				n, err := ec.dec(data[used:], unsafe.Add(base, uintptr(i)*esz))
				if err != nil {
					return 0, err
				}
				used += n
			}
			reflect.NewAt(t, p).Elem().Set(ms)
			return used, nil
		}
	}
	return nil
}

// fixedSlice fills c for a slice of elements that each encode to width
// bytes: put appends a whole slice's elements, get fills s from the
// width*len(s) bytes at the start of data.
func fixedSlice[T any](c *typeCodec, width int, what string, put func([]byte, []T) []byte, get func(s []T, data []byte)) {
	c.enc = func(buf []byte, p unsafe.Pointer) []byte {
		s := *(*[]T)(p)
		if s == nil {
			return append(buf, 0)
		}
		return put(appendLen(buf, len(s)), s)
	}
	c.size = func(p unsafe.Pointer) int {
		s := *(*[]T)(p)
		if s == nil {
			return 1
		}
		return lenSize(len(s)) + width*len(s)
	}
	c.dec = func(data []byte, p unsafe.Pointer) (int, error) {
		l, used, err := sliceHead(data)
		if err != nil || l < 0 {
			return used, err
		}
		if len(data)-used < width*l {
			return 0, errTruncated(what)
		}
		s := make([]T, l)
		get(s, data[used:])
		*(*[]T)(p) = s
		return used + width*l, nil
	}
}

// decodeBytes is the []byte decoder: the field is a copy of exactly its
// bytes.
func decodeBytes(data []byte, p unsafe.Pointer) (int, error) {
	l, used, err := sliceHead(data)
	if err != nil || l < 0 {
		return used, err
	}
	if len(data)-used < l {
		return 0, errTruncated("byte slice")
	}
	// Copying from a named slice of exactly l bytes compiles to one
	// makeslicecopy, which skips zeroing the new slice first.
	field := data[used : used+l]
	s := make([]byte, len(field))
	copy(s, field)
	*(*[]byte)(p) = s
	return used + l, nil
}

// sliceHead reads the presence byte and length prefix. A nil slice reports
// l == -1 with the presence byte consumed; the caller leaves the zeroed
// destination untouched.
func sliceHead(data []byte) (l, used int, err error) {
	if len(data) < 1 {
		return 0, 0, errTruncated("slice presence")
	}
	if data[0] == 0 {
		return -1, 1, nil
	}
	n64, n := binary.Uvarint(data[1:])
	if n <= 0 {
		return 0, 0, errTruncated("slice length")
	}
	if n64 > uint64(len(data)) {
		return 0, 0, fmt.Errorf("serial: slice length %d exceeds buffer", n64)
	}
	return int(n64), 1 + n, nil
}

// appendLen starts the encoding of a present slice or map of n elements.
func appendLen(buf []byte, n int) []byte {
	return binary.AppendUvarint(append(buf, 1), uint64(n))
}

// lenSize is the length of appendLen's output.
func lenSize(n int) int { return 1 + uvarintLen(uint64(n)) }

func (cs codecs) compileArray(c *typeCodec, t reflect.Type) error {
	et := t.Elem()
	ec, err := cs.compile(et)
	if err != nil {
		return err
	}
	n, esz := t.Len(), et.Size()
	if ec.fixed >= 0 {
		c.fixed = n * ec.fixed
	}
	c.enc = func(buf []byte, p unsafe.Pointer) []byte {
		for i := 0; i < n; i++ {
			buf = ec.enc(buf, unsafe.Add(p, uintptr(i)*esz))
		}
		return buf
	}
	c.size = func(p unsafe.Pointer) int {
		sz := 0
		for i := 0; i < n; i++ {
			sz += ec.size(unsafe.Add(p, uintptr(i)*esz))
		}
		return sz
	}
	c.dec = func(data []byte, p unsafe.Pointer) (int, error) {
		used := 0
		for i := 0; i < n; i++ {
			m, err := ec.dec(data[used:], unsafe.Add(p, uintptr(i)*esz))
			if err != nil {
				return 0, err
			}
			used += m
		}
		return used, nil
	}
	return nil
}

// compileMap builds map codecs: a presence byte, then (when not nil) the
// entry count and each entry's key and value, in keyOrder of the keys, so
// that a map has one encoding. Iterating a map takes reflect: the entries
// are copied out into arrays of the key and value types and run through
// their compiled codecs.
func (cs codecs) compileMap(c *typeCodec, t reflect.Type) error {
	kt, vt := t.Key(), t.Elem()
	kc, err := cs.compile(kt)
	if err != nil {
		return err
	}
	vc, err := cs.compile(vt)
	if err != nil {
		return err
	}
	kst, vst := reflect.SliceOf(kt), reflect.SliceOf(vt)
	ksz, vsz := kt.Size(), vt.Size()
	less := keyOrder(kt)
	// entries copies m out: entry i's key to keys[i], its value to vals[i].
	entries := func(m reflect.Value) (keys, vals reflect.Value) {
		keys = reflect.MakeSlice(kst, m.Len(), m.Len())
		vals = reflect.MakeSlice(vst, m.Len(), m.Len())
		for i, it := 0, m.MapRange(); it.Next(); i++ {
			keys.Index(i).SetIterKey(it)
			vals.Index(i).SetIterValue(it)
		}
		return keys, vals
	}
	c.enc = func(buf []byte, p unsafe.Pointer) []byte {
		m := reflect.NewAt(t, p).Elem()
		if m.IsNil() {
			return append(buf, 0)
		}
		keys, vals := entries(m)
		order := make([]int, keys.Len())
		for i := range order {
			order[i] = i
		}
		if less != nil {
			sort.Slice(order, func(i, j int) bool { return less(keys.Index(order[i]), keys.Index(order[j])) })
		} else {
			// Each key's text is built once, not at every comparison.
			text := make([]string, len(order))
			for i := range text {
				text[i] = fmt.Sprint(keys.Index(i).Interface())
			}
			sort.Slice(order, func(i, j int) bool { return text[order[i]] < text[order[j]] })
		}
		kp, vp := keys.UnsafePointer(), vals.UnsafePointer()
		buf = appendLen(buf, len(order))
		for _, i := range order {
			buf = kc.enc(buf, unsafe.Add(kp, uintptr(i)*ksz))
			buf = vc.enc(buf, unsafe.Add(vp, uintptr(i)*vsz))
		}
		return buf
	}
	c.size = func(p unsafe.Pointer) int {
		m := reflect.NewAt(t, p).Elem()
		if m.IsNil() {
			return 1
		}
		sz := lenSize(m.Len())
		if kc.fixed >= 0 && vc.fixed >= 0 {
			return sz + m.Len()*(kc.fixed+vc.fixed)
		}
		keys, vals := entries(m)
		kp, vp := keys.UnsafePointer(), vals.UnsafePointer()
		for i := 0; i < keys.Len(); i++ {
			sz += kc.size(unsafe.Add(kp, uintptr(i)*ksz)) + vc.size(unsafe.Add(vp, uintptr(i)*vsz))
		}
		return sz
	}
	c.dec = func(data []byte, p unsafe.Pointer) (int, error) {
		if len(data) < 1 {
			return 0, errTruncated("map presence")
		}
		if data[0] == 0 {
			return 1, nil
		}
		l, n := binary.Uvarint(data[1:])
		if n <= 0 {
			return 0, errTruncated("map length")
		}
		// Every entry costs at least two bytes on the wire; a larger claim
		// is corrupt and would otherwise provoke a giant preallocation.
		if l > uint64(len(data)) {
			return 0, fmt.Errorf("serial: map length %d exceeds buffer", l)
		}
		used := 1 + n
		m := reflect.MakeMapWithSize(t, int(l))
		k, v := reflect.New(kt).Elem(), reflect.New(vt).Elem()
		kp, vp := k.Addr().UnsafePointer(), v.Addr().UnsafePointer()
		for i := uint64(0); i < l; i++ {
			// A decoder leaves a nil slice's field as it found it, so the
			// value is reset. A key needs no reset: comparable types hold
			// no slices, and every other field is written.
			v.SetZero()
			n, err := kc.dec(data[used:], kp)
			if err != nil {
				return 0, err
			}
			used += n
			if n, err = vc.dec(data[used:], vp); err != nil {
				return 0, err
			}
			used += n
			m.SetMapIndex(k, v)
		}
		reflect.NewAt(t, p).Elem().Set(m)
		return used, nil
	}
	return nil
}

// keyOrder is the order of map keys of type t on the wire: numbers by
// value, false before true, strings bytewise, and — where it returns nil —
// keys of any other kind by their fmt.Sprint text.
func keyOrder(t reflect.Type) func(a, b reflect.Value) bool {
	switch t.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return func(a, b reflect.Value) bool { return a.Int() < b.Int() }
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return func(a, b reflect.Value) bool { return a.Uint() < b.Uint() }
	case reflect.Float32, reflect.Float64:
		return func(a, b reflect.Value) bool { return a.Float() < b.Float() }
	case reflect.String:
		return func(a, b reflect.Value) bool { return a.String() < b.String() }
	case reflect.Bool:
		return func(a, b reflect.Value) bool { return !a.Bool() && b.Bool() }
	default:
		return nil
	}
}

func (cs codecs) compilePointer(c *typeCodec, t reflect.Type) error {
	et := t.Elem()
	ec, err := cs.compile(et)
	if err != nil {
		return err
	}
	c.enc = func(buf []byte, p unsafe.Pointer) []byte {
		ptr := *(*unsafe.Pointer)(p)
		if ptr == nil {
			return append(buf, 0)
		}
		return ec.enc(append(buf, 1), ptr)
	}
	c.size = func(p unsafe.Pointer) int {
		ptr := *(*unsafe.Pointer)(p)
		if ptr == nil {
			return 1
		}
		return 1 + ec.size(ptr)
	}
	c.dec = func(data []byte, p unsafe.Pointer) (int, error) {
		if len(data) < 1 {
			return 0, errTruncated("pointer presence")
		}
		if data[0] == 0 {
			*(*unsafe.Pointer)(p) = nil
			return 1, nil
		}
		rn := reflect.New(et) // typed allocation, visible to the GC
		n, err := ec.dec(data[1:], rn.UnsafePointer())
		if err != nil {
			return 0, err
		}
		*(*unsafe.Pointer)(p) = rn.UnsafePointer()
		return 1 + n, nil
	}
	return nil
}

// structField is one encodable field of a compiled struct codec.
type structField struct {
	off  uintptr
	name string
	c    *typeCodec
}

// compileStruct encodes the exported fields not tagged `dps:"-"`, in
// declaration order.
func (cs codecs) compileStruct(c *typeCodec, t reflect.Type) error {
	var fields []structField
	fixed := 0
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() || f.Tag.Get("dps") == "-" {
			continue
		}
		fc, err := cs.compile(f.Type)
		if err != nil {
			return fmt.Errorf("field %s: %w", f.Name, err)
		}
		fields = append(fields, structField{off: f.Offset, name: f.Name, c: fc})
		if fixed >= 0 && fc.fixed >= 0 {
			fixed += fc.fixed
		} else {
			fixed = -1
		}
	}
	c.fixed = fixed
	c.enc = func(buf []byte, p unsafe.Pointer) []byte {
		for _, f := range fields {
			buf = f.c.enc(buf, unsafe.Add(p, f.off))
		}
		return buf
	}
	c.size = func(p unsafe.Pointer) int {
		sz := 0
		for _, f := range fields {
			sz += f.c.size(unsafe.Add(p, f.off))
		}
		return sz
	}
	c.dec = func(data []byte, p unsafe.Pointer) (int, error) {
		used := 0
		for _, f := range fields {
			n, err := f.c.dec(data[used:], unsafe.Add(p, f.off))
			if err != nil {
				return 0, fmt.Errorf("field %s: %w", f.name, err)
			}
			used += n
		}
		return used, nil
	}
	return nil
}

// uvarintLen is the exact length of binary.AppendUvarint's output.
func uvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}

// varintLen is the exact length of binary.AppendVarint's output.
func varintLen(x int64) int {
	return uvarintLen(uint64(x)<<1 ^ uint64(x>>63))
}

func errTruncated(what string) error {
	return fmt.Errorf("serial: truncated input reading %s", what)
}
