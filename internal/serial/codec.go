package serial

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"sync"
	"unsafe"
)

// typeCodec is a compiled encoder/decoder/size program for one Go type.
// It is built once at registration time by walking the type's structure,
// so the per-call hot path never touches reflect for anything but maps
// (which need reflect to iterate) and allocations that must carry the
// precise Go type for the garbage collector.
type typeCodec struct {
	// enc appends the wire encoding of the value at p.
	enc func(buf []byte, p unsafe.Pointer) []byte
	// dec decodes into the zeroed value at p, returning the bytes consumed.
	// With a non-nil o the caller has given data away (UnmarshalOwned) and a
	// large enough []byte field may keep a slice of it; with nil every field
	// is copied out.
	dec func(data []byte, p unsafe.Pointer, o *owner) (int, error)
	// size returns the exact number of bytes enc would append.
	size func(p unsafe.Pointer) int
	// fixed is the encoded size when it is the same for every value of the
	// type (fixed-width primitives, structs of such), else -1.
	fixed int
}

// owner is the state of one owning decode.
type owner struct {
	// min is the length from which a []byte field aliases the input instead
	// of copying it: half of the input, rounded up, so at least one.
	min int
	// kept records that some field does.
	kept bool
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

func f32ToWire(f float32) uint32   { return quietF32(math.Float32bits(f)) }
func f32FromWire(b uint32) float32 { return math.Float32frombits(quietF32(b)) }

// codecCache shares compiled codecs across all registries: codecs carry no
// registry state, only type structure.
var codecCache = struct {
	sync.RWMutex
	m map[reflect.Type]*typeCodec
}{m: make(map[reflect.Type]*typeCodec)}

// codecFor returns the compiled codec for t, building (and caching) it on
// first use. t must already have passed checkEncodable.
func codecFor(t reflect.Type) *typeCodec {
	codecCache.RLock()
	c := codecCache.m[t]
	codecCache.RUnlock()
	if c != nil {
		return c
	}
	codecCache.Lock()
	defer codecCache.Unlock()
	return compile(t)
}

// compile builds the codec for t with codecCache.Lock held. Recursive types
// are handled by inserting the codec shell into the cache before filling its
// function fields; cycles necessarily pass through a pointer, whose closures
// call through the shell at run time.
func compile(t reflect.Type) *typeCodec {
	if c := codecCache.m[t]; c != nil {
		return c
	}
	c := &typeCodec{fixed: -1}
	codecCache.m[t] = c

	switch t.Kind() {
	case reflect.Bool:
		c.fixed = 1
		c.enc = func(buf []byte, p unsafe.Pointer) []byte {
			if *(*bool)(p) {
				return append(buf, 1)
			}
			return append(buf, 0)
		}
		c.dec = func(data []byte, p unsafe.Pointer, o *owner) (int, error) {
			if len(data) < 1 {
				return 0, errTruncated("bool")
			}
			*(*bool)(p) = data[0] != 0
			return 1, nil
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		load := intLoader(t.Kind())
		store, err := intStorer(t)
		if err != nil {
			panic(err) // unreachable: kinds enumerated above
		}
		c.enc = func(buf []byte, p unsafe.Pointer) []byte {
			return binary.AppendVarint(buf, load(p))
		}
		c.size = func(p unsafe.Pointer) int { return varintLen(load(p)) }
		c.dec = func(data []byte, p unsafe.Pointer, o *owner) (int, error) {
			x, n := binary.Varint(data)
			if n <= 0 {
				return 0, errTruncated("varint")
			}
			return n, store(p, x)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		load := uintLoader(t.Kind())
		store, err := uintStorer(t)
		if err != nil {
			panic(err) // unreachable: kinds enumerated above
		}
		c.enc = func(buf []byte, p unsafe.Pointer) []byte {
			return binary.AppendUvarint(buf, load(p))
		}
		c.size = func(p unsafe.Pointer) int { return uvarintLen(load(p)) }
		c.dec = func(data []byte, p unsafe.Pointer, o *owner) (int, error) {
			x, n := binary.Uvarint(data)
			if n <= 0 {
				return 0, errTruncated("uvarint")
			}
			return n, store(p, x)
		}
	case reflect.Float32:
		c.fixed = 4
		c.enc = func(buf []byte, p unsafe.Pointer) []byte {
			return binary.LittleEndian.AppendUint32(buf, f32ToWire(*(*float32)(p)))
		}
		c.dec = func(data []byte, p unsafe.Pointer, o *owner) (int, error) {
			if len(data) < 4 {
				return 0, errTruncated("float32")
			}
			*(*float32)(p) = f32FromWire(binary.LittleEndian.Uint32(data))
			return 4, nil
		}
	case reflect.Float64:
		c.fixed = 8
		c.enc = func(buf []byte, p unsafe.Pointer) []byte {
			return binary.LittleEndian.AppendUint64(buf, math.Float64bits(*(*float64)(p)))
		}
		c.dec = func(data []byte, p unsafe.Pointer, o *owner) (int, error) {
			if len(data) < 8 {
				return 0, errTruncated("float64")
			}
			*(*float64)(p) = math.Float64frombits(binary.LittleEndian.Uint64(data))
			return 8, nil
		}
	case reflect.Complex64:
		c.fixed = 8
		c.enc = func(buf []byte, p unsafe.Pointer) []byte {
			v := *(*complex64)(p)
			buf = binary.LittleEndian.AppendUint32(buf, f32ToWire(real(v)))
			return binary.LittleEndian.AppendUint32(buf, f32ToWire(imag(v)))
		}
		c.dec = func(data []byte, p unsafe.Pointer, o *owner) (int, error) {
			if len(data) < 8 {
				return 0, errTruncated("complex64")
			}
			re := f32FromWire(binary.LittleEndian.Uint32(data))
			im := f32FromWire(binary.LittleEndian.Uint32(data[4:]))
			*(*complex64)(p) = complex(re, im)
			return 8, nil
		}
	case reflect.Complex128:
		c.fixed = 16
		c.enc = func(buf []byte, p unsafe.Pointer) []byte {
			v := *(*complex128)(p)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(real(v)))
			return binary.LittleEndian.AppendUint64(buf, math.Float64bits(imag(v)))
		}
		c.dec = func(data []byte, p unsafe.Pointer, o *owner) (int, error) {
			if len(data) < 16 {
				return 0, errTruncated("complex128")
			}
			re := math.Float64frombits(binary.LittleEndian.Uint64(data))
			im := math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
			*(*complex128)(p) = complex(re, im)
			return 16, nil
		}
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
		c.dec = func(data []byte, p unsafe.Pointer, o *owner) (int, error) {
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return 0, errTruncated("string")
			}
			*(*string)(p) = string(data[n : n+int(l)])
			return n + int(l), nil
		}
	case reflect.Slice:
		compileSlice(c, t)
	case reflect.Array:
		et := t.Elem()
		ec := compile(et)
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
		if c.fixed < 0 {
			c.size = func(p unsafe.Pointer) int {
				sz := 0
				for i := 0; i < n; i++ {
					sz += ec.size(unsafe.Add(p, uintptr(i)*esz))
				}
				return sz
			}
		}
		c.dec = func(data []byte, p unsafe.Pointer, o *owner) (int, error) {
			used := 0
			for i := 0; i < n; i++ {
				m, err := ec.dec(data[used:], unsafe.Add(p, uintptr(i)*esz), o)
				if err != nil {
					return 0, err
				}
				used += m
			}
			return used, nil
		}
	case reflect.Map:
		// Maps keep the reference reflection codec: encoding needs sorted
		// reflective iteration anyway, and maps are off the token hot paths.
		c.enc = func(buf []byte, p unsafe.Pointer) []byte {
			buf, err := encodeValue(buf, reflect.NewAt(t, p).Elem())
			if err != nil {
				// Unreachable: registration validated every reachable type.
				panic(fmt.Sprintf("serial: internal: %v", err))
			}
			return buf
		}
		c.size = func(p unsafe.Pointer) int {
			return sizeValue(reflect.NewAt(t, p).Elem())
		}
		c.dec = func(data []byte, p unsafe.Pointer, o *owner) (int, error) {
			return decodeValue(data, reflect.NewAt(t, p).Elem())
		}
	case reflect.Pointer:
		et := t.Elem()
		ec := compile(et)
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
		c.dec = func(data []byte, p unsafe.Pointer, o *owner) (int, error) {
			if len(data) < 1 {
				return 0, errTruncated("pointer presence")
			}
			if data[0] == 0 {
				*(*unsafe.Pointer)(p) = nil
				return 1, nil
			}
			rn := reflect.New(et) // typed allocation, visible to the GC
			n, err := ec.dec(data[1:], rn.UnsafePointer(), o)
			if err != nil {
				return 0, err
			}
			*(*unsafe.Pointer)(p) = rn.UnsafePointer()
			return 1 + n, nil
		}
	case reflect.Struct:
		compileStruct(c, t)
	default:
		// Unreachable: checkEncodable rejects every other kind at
		// registration time.
		panic(fmt.Sprintf("serial: internal: cannot compile kind %s", t.Kind()))
	}

	if c.fixed >= 0 {
		k := c.fixed
		c.size = func(unsafe.Pointer) int { return k }
	}
	return c
}

// structField is one encodable field of a compiled struct codec.
type structField struct {
	off  uintptr
	name string
	c    *typeCodec
}

func compileStruct(c *typeCodec, t reflect.Type) {
	var fields []structField
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() || f.Tag.Get("dps") == "-" {
			continue
		}
		fields = append(fields, structField{off: f.Offset, name: f.Name, c: compile(f.Type)})
	}
	fixed := 0
	for _, f := range fields {
		if f.c.fixed < 0 {
			fixed = -1
			break
		}
		fixed += f.c.fixed
	}
	c.fixed = fixed
	c.enc = func(buf []byte, p unsafe.Pointer) []byte {
		for _, f := range fields {
			buf = f.c.enc(buf, unsafe.Add(p, f.off))
		}
		return buf
	}
	if fixed < 0 {
		c.size = func(p unsafe.Pointer) int {
			sz := 0
			for _, f := range fields {
				sz += f.c.size(unsafe.Add(p, f.off))
			}
			return sz
		}
	}
	c.dec = func(data []byte, p unsafe.Pointer, o *owner) (int, error) {
		used := 0
		for _, f := range fields {
			n, err := f.c.dec(data[used:], unsafe.Add(p, f.off), o)
			if err != nil {
				return 0, fmt.Errorf("field %s: %w", f.name, err)
			}
			used += n
		}
		return used, nil
	}
}

// compileSlice builds slice codecs. Primitive element kinds get bulk fast
// paths — one presence byte and length prefix, then a tight loop (or copy)
// over the raw backing array — instead of a per-element codec call. The
// decode side allocates backing arrays with the plain built-in type of the
// element's kind, which is layout- and GC-equivalent for pointer-free
// elements even when the field's element type is a named type.
func compileSlice(c *typeCodec, t reflect.Type) {
	et := t.Elem()
	switch et.Kind() {
	case reflect.Uint8:
		c.enc = func(buf []byte, p unsafe.Pointer) []byte {
			h := (*sliceHeader)(p)
			if h.data == nil {
				return append(buf, 0)
			}
			buf = append(buf, 1)
			buf = binary.AppendUvarint(buf, uint64(h.len))
			return append(buf, unsafe.Slice((*byte)(h.data), h.len)...)
		}
		c.size = func(p unsafe.Pointer) int {
			h := (*sliceHeader)(p)
			if h.data == nil {
				return 1
			}
			return 1 + uvarintLen(uint64(h.len)) + h.len
		}
		c.dec = func(data []byte, p unsafe.Pointer, o *owner) (int, error) {
			l, used, err := sliceHead(data)
			if err != nil || l < 0 {
				return used, err
			}
			if len(data)-used < l {
				return 0, errTruncated("byte slice")
			}
			end := used + l
			var s []byte
			if o != nil && l >= o.min {
				// The capacity stops at the field's last byte: an append by
				// the user reallocates instead of writing into the bytes
				// behind it.
				s, o.kept = data[used:end:end], true
			} else {
				s = make([]byte, l)
				copy(s, data[used:])
			}
			storeSlice(p, s, l)
			return end, nil
		}
	case reflect.Bool:
		c.enc = func(buf []byte, p unsafe.Pointer) []byte {
			h := (*sliceHeader)(p)
			if h.data == nil {
				return append(buf, 0)
			}
			buf = append(buf, 1)
			buf = binary.AppendUvarint(buf, uint64(h.len))
			for _, v := range unsafe.Slice((*bool)(h.data), h.len) {
				if v {
					buf = append(buf, 1)
				} else {
					buf = append(buf, 0)
				}
			}
			return buf
		}
		c.size = func(p unsafe.Pointer) int {
			h := (*sliceHeader)(p)
			if h.data == nil {
				return 1
			}
			return 1 + uvarintLen(uint64(h.len)) + h.len
		}
		c.dec = func(data []byte, p unsafe.Pointer, o *owner) (int, error) {
			l, used, err := sliceHead(data)
			if err != nil || l < 0 {
				return used, err
			}
			if len(data)-used < l {
				return 0, errTruncated("bool slice")
			}
			s := make([]bool, l)
			for i := range s {
				s[i] = data[used+i] != 0
			}
			storeSlice(p, s, l)
			return used + l, nil
		}
	case reflect.Float64:
		c.enc = func(buf []byte, p unsafe.Pointer) []byte {
			h := (*sliceHeader)(p)
			if h.data == nil {
				return append(buf, 0)
			}
			buf = append(buf, 1)
			buf = binary.AppendUvarint(buf, uint64(h.len))
			for _, v := range unsafe.Slice((*float64)(h.data), h.len) {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
			return buf
		}
		c.size = func(p unsafe.Pointer) int {
			h := (*sliceHeader)(p)
			if h.data == nil {
				return 1
			}
			return 1 + uvarintLen(uint64(h.len)) + 8*h.len
		}
		c.dec = func(data []byte, p unsafe.Pointer, o *owner) (int, error) {
			l, used, err := sliceHead(data)
			if err != nil || l < 0 {
				return used, err
			}
			if len(data)-used < 8*l {
				return 0, errTruncated("float64 slice")
			}
			s := make([]float64, l)
			for i := range s {
				s[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[used+8*i:]))
			}
			storeSlice(p, s, l)
			return used + 8*l, nil
		}
	case reflect.Float32:
		c.enc = func(buf []byte, p unsafe.Pointer) []byte {
			h := (*sliceHeader)(p)
			if h.data == nil {
				return append(buf, 0)
			}
			buf = append(buf, 1)
			buf = binary.AppendUvarint(buf, uint64(h.len))
			for _, v := range unsafe.Slice((*float32)(h.data), h.len) {
				buf = binary.LittleEndian.AppendUint32(buf, f32ToWire(v))
			}
			return buf
		}
		c.size = func(p unsafe.Pointer) int {
			h := (*sliceHeader)(p)
			if h.data == nil {
				return 1
			}
			return 1 + uvarintLen(uint64(h.len)) + 4*h.len
		}
		c.dec = func(data []byte, p unsafe.Pointer, o *owner) (int, error) {
			l, used, err := sliceHead(data)
			if err != nil || l < 0 {
				return used, err
			}
			if len(data)-used < 4*l {
				return 0, errTruncated("float32 slice")
			}
			s := make([]float32, l)
			for i := range s {
				s[i] = f32FromWire(binary.LittleEndian.Uint32(data[used+4*i:]))
			}
			storeSlice(p, s, l)
			return used + 4*l, nil
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		compileIntSlice(c, et)
	case reflect.Uint, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		compileUintSlice(c, et)
	default:
		// Strings, structs, nested slices, maps, pointers, complexes: loop
		// the element codec over the backing array (no reflection).
		ec := compile(et)
		esz := et.Size()
		c.enc = func(buf []byte, p unsafe.Pointer) []byte {
			h := (*sliceHeader)(p)
			if h.data == nil {
				return append(buf, 0)
			}
			buf = append(buf, 1)
			buf = binary.AppendUvarint(buf, uint64(h.len))
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
			sz := 1 + uvarintLen(uint64(h.len))
			if ec.fixed >= 0 {
				return sz + h.len*ec.fixed
			}
			for i := 0; i < h.len; i++ {
				sz += ec.size(unsafe.Add(h.data, uintptr(i)*esz))
			}
			return sz
		}
		c.dec = func(data []byte, p unsafe.Pointer, o *owner) (int, error) {
			l, used, err := sliceHead(data)
			if err != nil || l < 0 {
				return used, err
			}
			ms := reflect.MakeSlice(t, l, l)
			base := ms.UnsafePointer()
			for i := 0; i < l; i++ {
				n, err := ec.dec(data[used:], unsafe.Add(base, uintptr(i)*esz), o)
				if err != nil {
					return 0, err
				}
				used += n
			}
			reflect.NewAt(t, p).Elem().Set(ms)
			return used, nil
		}
	}
}

// compileIntSlice builds the bulk varint path shared by every signed
// integer element width.
func compileIntSlice(c *typeCodec, et reflect.Type) {
	load := intLoader(et.Kind())
	store, err := intStorer(et)
	if err != nil {
		panic(err) // unreachable: callers pass int kinds only
	}
	esz := et.Size()
	c.enc = func(buf []byte, p unsafe.Pointer) []byte {
		h := (*sliceHeader)(p)
		if h.data == nil {
			return append(buf, 0)
		}
		buf = append(buf, 1)
		buf = binary.AppendUvarint(buf, uint64(h.len))
		for i := 0; i < h.len; i++ {
			buf = binary.AppendVarint(buf, load(unsafe.Add(h.data, uintptr(i)*esz)))
		}
		return buf
	}
	c.size = func(p unsafe.Pointer) int {
		h := (*sliceHeader)(p)
		if h.data == nil {
			return 1
		}
		sz := 1 + uvarintLen(uint64(h.len))
		for i := 0; i < h.len; i++ {
			sz += varintLen(load(unsafe.Add(h.data, uintptr(i)*esz)))
		}
		return sz
	}
	mk := makerForKind(et.Kind())
	c.dec = func(data []byte, p unsafe.Pointer, o *owner) (int, error) {
		l, used, err := sliceHead(data)
		if err != nil || l < 0 {
			return used, err
		}
		base := mk(p, l)
		for i := 0; i < l; i++ {
			x, n := binary.Varint(data[used:])
			if n <= 0 {
				return 0, errTruncated("varint")
			}
			if err := store(unsafe.Add(base, uintptr(i)*esz), x); err != nil {
				return 0, err
			}
			used += n
		}
		return used, nil
	}
}

// compileUintSlice is the unsigned counterpart of compileIntSlice.
func compileUintSlice(c *typeCodec, et reflect.Type) {
	load := uintLoader(et.Kind())
	store, err := uintStorer(et)
	if err != nil {
		panic(err) // unreachable: callers pass uint kinds only
	}
	esz := et.Size()
	c.enc = func(buf []byte, p unsafe.Pointer) []byte {
		h := (*sliceHeader)(p)
		if h.data == nil {
			return append(buf, 0)
		}
		buf = append(buf, 1)
		buf = binary.AppendUvarint(buf, uint64(h.len))
		for i := 0; i < h.len; i++ {
			buf = binary.AppendUvarint(buf, load(unsafe.Add(h.data, uintptr(i)*esz)))
		}
		return buf
	}
	c.size = func(p unsafe.Pointer) int {
		h := (*sliceHeader)(p)
		if h.data == nil {
			return 1
		}
		sz := 1 + uvarintLen(uint64(h.len))
		for i := 0; i < h.len; i++ {
			sz += uvarintLen(load(unsafe.Add(h.data, uintptr(i)*esz)))
		}
		return sz
	}
	mk := makerForKind(et.Kind())
	c.dec = func(data []byte, p unsafe.Pointer, o *owner) (int, error) {
		l, used, err := sliceHead(data)
		if err != nil || l < 0 {
			return used, err
		}
		base := mk(p, l)
		for i := 0; i < l; i++ {
			x, n := binary.Uvarint(data[used:])
			if n <= 0 {
				return 0, errTruncated("uvarint")
			}
			if err := store(unsafe.Add(base, uintptr(i)*esz), x); err != nil {
				return 0, err
			}
			used += n
		}
		return used, nil
	}
}

// sliceHead reads the presence byte and length prefix. A nil slice reports
// l == -1 with the presence byte consumed; the caller leaves the zeroed
// destination untouched (matching the reference decoder's SetZero).
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

// storeSlice publishes a freshly built backing array into the slice field
// at p. The field's static type keeps the array reachable.
func storeSlice[T any](p unsafe.Pointer, s []T, l int) {
	*(*sliceHeader)(p) = sliceHeader{data: unsafe.Pointer(unsafe.SliceData(s)), len: l, cap: l}
}

// makerForKind returns an allocator that installs a fresh backing array of
// the kind's built-in type into the slice field at p and returns its base
// pointer. Safe for named element types: layout and pointer-freeness depend
// only on the kind.
func makerForKind(k reflect.Kind) func(p unsafe.Pointer, l int) unsafe.Pointer {
	switch k {
	case reflect.Int:
		return func(p unsafe.Pointer, l int) unsafe.Pointer {
			s := make([]int, l)
			storeSlice(p, s, l)
			return unsafe.Pointer(unsafe.SliceData(s))
		}
	case reflect.Int8:
		return func(p unsafe.Pointer, l int) unsafe.Pointer {
			s := make([]int8, l)
			storeSlice(p, s, l)
			return unsafe.Pointer(unsafe.SliceData(s))
		}
	case reflect.Int16:
		return func(p unsafe.Pointer, l int) unsafe.Pointer {
			s := make([]int16, l)
			storeSlice(p, s, l)
			return unsafe.Pointer(unsafe.SliceData(s))
		}
	case reflect.Int32:
		return func(p unsafe.Pointer, l int) unsafe.Pointer {
			s := make([]int32, l)
			storeSlice(p, s, l)
			return unsafe.Pointer(unsafe.SliceData(s))
		}
	case reflect.Int64:
		return func(p unsafe.Pointer, l int) unsafe.Pointer {
			s := make([]int64, l)
			storeSlice(p, s, l)
			return unsafe.Pointer(unsafe.SliceData(s))
		}
	case reflect.Uint:
		return func(p unsafe.Pointer, l int) unsafe.Pointer {
			s := make([]uint, l)
			storeSlice(p, s, l)
			return unsafe.Pointer(unsafe.SliceData(s))
		}
	case reflect.Uint16:
		return func(p unsafe.Pointer, l int) unsafe.Pointer {
			s := make([]uint16, l)
			storeSlice(p, s, l)
			return unsafe.Pointer(unsafe.SliceData(s))
		}
	case reflect.Uint32:
		return func(p unsafe.Pointer, l int) unsafe.Pointer {
			s := make([]uint32, l)
			storeSlice(p, s, l)
			return unsafe.Pointer(unsafe.SliceData(s))
		}
	case reflect.Uint64:
		return func(p unsafe.Pointer, l int) unsafe.Pointer {
			s := make([]uint64, l)
			storeSlice(p, s, l)
			return unsafe.Pointer(unsafe.SliceData(s))
		}
	default:
		panic(fmt.Sprintf("serial: internal: no slice maker for kind %s", k))
	}
}

// intLoader returns a loader widening the signed integer at p to int64.
func intLoader(k reflect.Kind) func(unsafe.Pointer) int64 {
	switch k {
	case reflect.Int:
		return func(p unsafe.Pointer) int64 { return int64(*(*int)(p)) }
	case reflect.Int8:
		return func(p unsafe.Pointer) int64 { return int64(*(*int8)(p)) }
	case reflect.Int16:
		return func(p unsafe.Pointer) int64 { return int64(*(*int16)(p)) }
	case reflect.Int32:
		return func(p unsafe.Pointer) int64 { return int64(*(*int32)(p)) }
	default:
		return func(p unsafe.Pointer) int64 { return *(*int64)(p) }
	}
}

// intStorer returns a storer narrowing an int64 into the field at p, with
// the reference decoder's overflow check and error message.
func intStorer(t reflect.Type) (func(unsafe.Pointer, int64) error, error) {
	switch t.Kind() {
	case reflect.Int:
		return func(p unsafe.Pointer, x int64) error {
			if int64(int(x)) != x {
				return fmt.Errorf("serial: value %d overflows %s", x, t)
			}
			*(*int)(p) = int(x)
			return nil
		}, nil
	case reflect.Int8:
		return func(p unsafe.Pointer, x int64) error {
			if int64(int8(x)) != x {
				return fmt.Errorf("serial: value %d overflows %s", x, t)
			}
			*(*int8)(p) = int8(x)
			return nil
		}, nil
	case reflect.Int16:
		return func(p unsafe.Pointer, x int64) error {
			if int64(int16(x)) != x {
				return fmt.Errorf("serial: value %d overflows %s", x, t)
			}
			*(*int16)(p) = int16(x)
			return nil
		}, nil
	case reflect.Int32:
		return func(p unsafe.Pointer, x int64) error {
			if int64(int32(x)) != x {
				return fmt.Errorf("serial: value %d overflows %s", x, t)
			}
			*(*int32)(p) = int32(x)
			return nil
		}, nil
	case reflect.Int64:
		return func(p unsafe.Pointer, x int64) error {
			*(*int64)(p) = x
			return nil
		}, nil
	default:
		return nil, fmt.Errorf("serial: internal: no int storer for %s", t)
	}
}

// uintLoader returns a loader widening the unsigned integer at p to uint64.
func uintLoader(k reflect.Kind) func(unsafe.Pointer) uint64 {
	switch k {
	case reflect.Uint:
		return func(p unsafe.Pointer) uint64 { return uint64(*(*uint)(p)) }
	case reflect.Uint8:
		return func(p unsafe.Pointer) uint64 { return uint64(*(*uint8)(p)) }
	case reflect.Uint16:
		return func(p unsafe.Pointer) uint64 { return uint64(*(*uint16)(p)) }
	case reflect.Uint32:
		return func(p unsafe.Pointer) uint64 { return uint64(*(*uint32)(p)) }
	default:
		return func(p unsafe.Pointer) uint64 { return *(*uint64)(p) }
	}
}

// uintStorer is the unsigned counterpart of intStorer.
func uintStorer(t reflect.Type) (func(unsafe.Pointer, uint64) error, error) {
	switch t.Kind() {
	case reflect.Uint:
		return func(p unsafe.Pointer, x uint64) error {
			if uint64(uint(x)) != x {
				return fmt.Errorf("serial: value %d overflows %s", x, t)
			}
			*(*uint)(p) = uint(x)
			return nil
		}, nil
	case reflect.Uint8:
		return func(p unsafe.Pointer, x uint64) error {
			if uint64(uint8(x)) != x {
				return fmt.Errorf("serial: value %d overflows %s", x, t)
			}
			*(*uint8)(p) = uint8(x)
			return nil
		}, nil
	case reflect.Uint16:
		return func(p unsafe.Pointer, x uint64) error {
			if uint64(uint16(x)) != x {
				return fmt.Errorf("serial: value %d overflows %s", x, t)
			}
			*(*uint16)(p) = uint16(x)
			return nil
		}, nil
	case reflect.Uint32:
		return func(p unsafe.Pointer, x uint64) error {
			if uint64(uint32(x)) != x {
				return fmt.Errorf("serial: value %d overflows %s", x, t)
			}
			*(*uint32)(p) = uint32(x)
			return nil
		}, nil
	case reflect.Uint64:
		return func(p unsafe.Pointer, x uint64) error {
			*(*uint64)(p) = x
			return nil
		}, nil
	default:
		return nil, fmt.Errorf("serial: internal: no uint storer for %s", t)
	}
}

// uvarintLen is the exact length of binary.AppendUvarint's output.
func uvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}

// varintLen is the exact length of binary.AppendVarint's output.
func varintLen(x int64) int {
	return uvarintLen(uint64(x)<<1 ^ uint64(x>>63))
}

// sizeValue is the reflection-driven size pass mirroring encodeValue,
// used by the map fallback (and as the reference in tests). It must agree
// byte-for-byte with the encoder.
func sizeValue(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Bool:
		return 1
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return varintLen(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return uvarintLen(v.Uint())
	case reflect.Float32:
		return 4
	case reflect.Float64:
		return 8
	case reflect.Complex64:
		return 8
	case reflect.Complex128:
		return 16
	case reflect.String:
		return uvarintLen(uint64(v.Len())) + v.Len()
	case reflect.Slice:
		if v.IsNil() {
			return 1
		}
		n := v.Len()
		sz := 1 + uvarintLen(uint64(n))
		// Mirror the encoder's byte-slice fast path: raw bytes, not varints.
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return sz + n
		}
		for i := 0; i < n; i++ {
			sz += sizeValue(v.Index(i))
		}
		return sz
	case reflect.Array:
		sz := 0
		for i := 0; i < v.Len(); i++ {
			sz += sizeValue(v.Index(i))
		}
		return sz
	case reflect.Map:
		if v.IsNil() {
			return 1
		}
		sz := 1 + uvarintLen(uint64(v.Len()))
		it := v.MapRange()
		for it.Next() {
			sz += sizeValue(it.Key()) + sizeValue(it.Value())
		}
		return sz
	case reflect.Pointer:
		if v.IsNil() {
			return 1
		}
		return 1 + sizeValue(v.Elem())
	case reflect.Struct:
		t := v.Type()
		sz := 0
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() || f.Tag.Get("dps") == "-" {
				continue
			}
			sz += sizeValue(v.Field(i))
		}
		return sz
	default:
		panic(fmt.Sprintf("serial: internal: cannot size kind %s", v.Kind()))
	}
}
