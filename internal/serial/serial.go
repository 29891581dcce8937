// Package serial implements the DPS data-object serialization substrate.
//
// The paper's C++ library serializes data objects ("tokens") automatically,
// without redundant declarations, using the IDENTIFY macro to register each
// class with an abstract factory so objects can be re-instantiated during
// deserialization. This package is the Go analogue: token types are
// registered once (Register / RegisterName) and values are encoded with a
// binary codec. The wire form of a token is
//
//	varint(typeID) payload
//
// where typeID indexes the registry and the payload is a deterministic
// depth-first traversal of the value: varints for integers, IEEE-754 bits
// for floats, length-prefixed bytes for strings and slices, key-sorted
// entries for maps, presence bytes for pointers.
//
// # Compile-at-registration design
//
// Registration compiles each type into a per-type codec program (see
// codec.go): a tree of closures with precomputed field offsets that encode
// and decode through unsafe pointers, so the per-call hot path performs no
// reflective field walk. Primitive slices ([]byte, []float64, []int, ...)
// take bulk fast paths — a single presence byte and length prefix followed
// by a tight loop over the raw backing array. Each codec also carries an
// exact size pass, letting EncodedSize and callers preallocate wire buffers
// without marshalling twice; Append therefore performs at most one buffer
// growth per token. Maps fall back to the reference reflection codec, which
// is retained (encodeValue / decodeValue) both for that purpose and as the
// oracle the fuzz tests compare against byte-for-byte.
//
// Only exported fields are serialized, mirroring the paper's rule that data
// objects expose their payload as public members. The wire format is
// identical to the original reflection-driven codec.
package serial

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"unsafe"
)

// Registry maps token type names to reflect types and numeric IDs. A single
// process-wide registry (DefaultRegistry) is normally used, matching the
// paper's global class factory, but independent registries can be created
// for tests.
type Registry struct {
	mu      sync.RWMutex
	byName  map[string]int
	byType  map[reflect.Type]int
	entries []regEntry
}

type regEntry struct {
	name string
	typ  reflect.Type
	c    *typeCodec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byName: make(map[string]int),
		byType: make(map[reflect.Type]int),
	}
}

// DefaultRegistry is the process-wide token registry.
var DefaultRegistry = NewRegistry()

// RegisterName registers typ under the given name. Registering the same
// (name, type) pair twice is a no-op; reusing a name for a different type
// is an error.
func (r *Registry) RegisterName(name string, typ reflect.Type) error {
	if typ.Kind() == reflect.Pointer {
		typ = typ.Elem()
	}
	if typ.Kind() != reflect.Struct {
		return fmt.Errorf("serial: register %q: tokens must be structs, got %s", name, typ)
	}
	if err := checkEncodable(typ, map[reflect.Type]bool{}); err != nil {
		return fmt.Errorf("serial: register %q: %w", name, err)
	}
	c := codecFor(typ)
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.byName[name]; ok {
		if r.entries[id].typ != typ {
			return fmt.Errorf("serial: name %q already registered for %s", name, r.entries[id].typ)
		}
		return nil
	}
	if _, ok := r.byType[typ]; ok {
		return fmt.Errorf("serial: type %s already registered", typ)
	}
	id := len(r.entries)
	r.entries = append(r.entries, regEntry{name: name, typ: typ, c: c})
	r.byName[name] = id
	r.byType[typ] = id
	return nil
}

// Register registers T under its package-qualified type name. It is the
// analogue of the paper's IDENTIFY(T) macro.
func Register[T any](r *Registry) error {
	typ := reflect.TypeOf((*T)(nil)).Elem()
	return r.RegisterName(typeName(typ), typ)
}

// MustRegister registers T in the default registry and panics on error. It
// is intended for package-level var _ = serial.MustRegister[T]() lines.
func MustRegister[T any]() struct{} {
	if err := Register[T](DefaultRegistry); err != nil {
		panic(err)
	}
	return struct{}{}
}

func typeName(typ reflect.Type) string {
	if typ.Kind() == reflect.Pointer {
		typ = typ.Elem()
	}
	if typ.PkgPath() == "" {
		return typ.Name()
	}
	return typ.PkgPath() + "." + typ.Name()
}

// IDOf returns the numeric type ID of v's type.
func (r *Registry) IDOf(v any) (int, error) {
	typ := reflect.TypeOf(v)
	if typ == nil {
		return 0, fmt.Errorf("serial: cannot identify nil value")
	}
	if typ.Kind() == reflect.Pointer {
		typ = typ.Elem()
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	id, ok := r.byType[typ]
	if !ok {
		return 0, fmt.Errorf("serial: type %s not registered", typ)
	}
	return id, nil
}

// NameOf returns the registered name of v's type.
func (r *Registry) NameOf(v any) (string, error) {
	id, err := r.IDOf(v)
	if err != nil {
		return "", err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.entries[id].name, nil
}

// TypeByName looks up a registered type.
func (r *Registry) TypeByName(name string) (reflect.Type, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	id, ok := r.byName[name]
	if !ok {
		return nil, false
	}
	return r.entries[id].typ, true
}

// Len reports the number of registered types.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Marshal encodes v (a pointer to a registered struct, or the struct value
// itself) as typeID + payload.
func (r *Registry) Marshal(v any) ([]byte, error) {
	id, c, p, err := r.codecOf(v)
	if err != nil {
		return nil, err
	}
	// Exact-size preallocation: one allocation, no growth copies.
	buf := make([]byte, 0, uvarintLen(uint64(id))+c.size(p))
	buf = binary.AppendUvarint(buf, uint64(id))
	return c.enc(buf, p), nil
}

// Append is like Marshal but appends to buf, returning the extended slice.
func (r *Registry) Append(buf []byte, v any) ([]byte, error) {
	id, c, p, err := r.codecOf(v)
	if err != nil {
		return buf, err
	}
	// Grow once to the exact final size before encoding.
	need := uvarintLen(uint64(id)) + c.size(p)
	if cap(buf)-len(buf) < need {
		grown := make([]byte, len(buf), len(buf)+need)
		copy(grown, buf)
		buf = grown
	}
	buf = binary.AppendUvarint(buf, uint64(id))
	return c.enc(buf, p), nil
}

// efaceWords mirrors the runtime layout of an interface value holding a
// pointer-shaped type: the data word is the pointer itself.
type efaceWords struct {
	typ  unsafe.Pointer
	data unsafe.Pointer
}

// lookup resolves a struct type to its ID and compiled codec.
func (r *Registry) lookup(st reflect.Type) (int, *typeCodec, error) {
	r.mu.RLock()
	id, ok := r.byType[st]
	var c *typeCodec
	if ok {
		c = r.entries[id].c
	}
	r.mu.RUnlock()
	if !ok {
		return 0, nil, fmt.Errorf("serial: type %s not registered", st)
	}
	return id, c, nil
}

// codecOf resolves v to its registered type ID, compiled codec and the
// address of the struct value. The common token shape — a single-level
// pointer to a registered struct — is resolved without reflection or
// allocation; struct values boxed in the interface are copied once into
// addressable memory.
func (r *Registry) codecOf(v any) (int, *typeCodec, unsafe.Pointer, error) {
	typ := reflect.TypeOf(v)
	if typ == nil {
		return 0, nil, nil, fmt.Errorf("serial: cannot identify nil value")
	}
	if typ.Kind() == reflect.Pointer && typ.Elem().Kind() == reflect.Struct {
		id, c, err := r.lookup(typ.Elem())
		if err != nil {
			return 0, nil, nil, err
		}
		// A pointer type is stored directly in the interface data word.
		p := (*efaceWords)(unsafe.Pointer(&v)).data
		if p == nil {
			return 0, nil, nil, fmt.Errorf("serial: cannot marshal nil pointer")
		}
		return id, c, p, nil
	}
	// Slow path: struct value or multi-level pointer.
	rv := reflect.ValueOf(v)
	st := rv.Type()
	if st.Kind() == reflect.Pointer {
		st = st.Elem()
	}
	id, c, err := r.lookup(st)
	if err != nil {
		return 0, nil, nil, err
	}
	for rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return 0, nil, nil, fmt.Errorf("serial: cannot marshal nil pointer")
		}
		rv = rv.Elem()
	}
	pv := reflect.New(rv.Type())
	pv.Elem().Set(rv)
	return id, c, pv.UnsafePointer(), nil
}

// Unmarshal decodes a value previously produced by Marshal and returns a
// pointer to a freshly allocated struct of the registered type. Nothing in
// the value refers to data afterwards.
func (r *Registry) Unmarshal(data []byte) (any, int, error) {
	return r.unmarshal(data, nil)
}

// UnmarshalOwned is Unmarshal for a caller that gives data away: nobody
// else reads or writes the buffer, now or later. A []byte field (of any
// named type, at any depth outside a map) holding at least half of data is
// then stored as a slice of data, capacity capped at its own end, instead
// of a copy; kept reports that the value refers to data, which must then
// be left to the garbage collector. With kept false — always on an error —
// the buffer is the caller's to reuse. Every length check is Unmarshal's.
//
// Half of the input, not a byte count: a kept field pins the whole buffer,
// so the rule bounds what a value holds to twice the bytes it can use
// whatever the sizes are. At most one field of a value can qualify (two
// halves leave no room for the type ID and their own length prefixes).
func (r *Registry) UnmarshalOwned(data []byte) (v any, n int, kept bool, err error) {
	o := getOwner((len(data) + 1) / 2)
	v, n, err = r.unmarshal(data, o)
	kept = o.kept
	putOwner(o)
	if err != nil {
		return nil, 0, false, err
	}
	return v, n, kept, nil
}

// ownerPool recycles the state of owning decodes: the compiled decoders are
// reached through function values, so an owner on the caller's stack would
// be moved to the heap on every call.
var ownerPool = sync.Pool{New: func() any { return new(owner) }}

func getOwner(keepFrom int) *owner {
	o := ownerPool.Get().(*owner)
	*o = owner{min: keepFrom}
	return o
}

func putOwner(o *owner) { ownerPool.Put(o) }

func (r *Registry) unmarshal(data []byte, o *owner) (any, int, error) {
	id, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, 0, fmt.Errorf("serial: truncated type id")
	}
	r.mu.RLock()
	if id >= uint64(len(r.entries)) {
		r.mu.RUnlock()
		return nil, 0, fmt.Errorf("serial: unknown type id %d", id)
	}
	e := r.entries[id]
	r.mu.RUnlock()
	pv := reflect.New(e.typ)
	used, err := e.c.dec(data[n:], pv.UnsafePointer(), o)
	if err != nil {
		return nil, 0, err
	}
	return pv.Interface(), n + used, nil
}

// EncodedSize returns the number of bytes Marshal would produce for v. It
// exists so the runtime can account for wire sizes without concatenating
// buffers twice. The compiled size pass computes it without building the
// marshal buffer, so it never allocates for pointer tokens.
func (r *Registry) EncodedSize(v any) (int, error) {
	id, c, p, err := r.codecOf(v)
	if err != nil {
		return 0, err
	}
	return uvarintLen(uint64(id)) + c.size(p), nil
}

// marshalReference is the original reflection-driven encoder, kept as the
// oracle for fuzz and equivalence tests: compiled codecs must produce
// byte-identical output.
func (r *Registry) marshalReference(v any) ([]byte, error) {
	id, err := r.IDOf(v)
	if err != nil {
		return nil, err
	}
	rv := reflect.ValueOf(v)
	for rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return nil, fmt.Errorf("serial: cannot marshal nil pointer")
		}
		rv = rv.Elem()
	}
	buf := binary.AppendUvarint(nil, uint64(id))
	return encodeValue(buf, rv)
}

// unmarshalReference is the original reflection-driven decoder, kept as the
// oracle for fuzz and equivalence tests.
func (r *Registry) unmarshalReference(data []byte) (any, int, error) {
	id, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, 0, fmt.Errorf("serial: truncated type id")
	}
	r.mu.RLock()
	if id >= uint64(len(r.entries)) {
		r.mu.RUnlock()
		return nil, 0, fmt.Errorf("serial: unknown type id %d", id)
	}
	typ := r.entries[id].typ
	r.mu.RUnlock()
	pv := reflect.New(typ)
	used, err := decodeValue(data[n:], pv.Elem())
	if err != nil {
		return nil, 0, err
	}
	return pv.Interface(), n + used, nil
}

// checkEncodable validates at registration time that every reachable field
// of typ can be encoded, so failures surface early (the paper's compile-time
// checks).
func checkEncodable(typ reflect.Type, seen map[reflect.Type]bool) error {
	switch typ.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64,
		reflect.Complex64, reflect.Complex128,
		reflect.String:
		return nil
	case reflect.Slice, reflect.Array:
		return checkEncodable(typ.Elem(), seen)
	case reflect.Map:
		if err := checkEncodable(typ.Key(), seen); err != nil {
			return err
		}
		return checkEncodable(typ.Elem(), seen)
	case reflect.Pointer:
		return checkEncodable(typ.Elem(), seen)
	case reflect.Struct:
		if seen[typ] {
			return nil // recursive type: encodable as long as pointers break the cycle
		}
		seen[typ] = true
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			if f.Tag.Get("dps") == "-" {
				continue
			}
			if err := checkEncodable(f.Type, seen); err != nil {
				return fmt.Errorf("field %s: %w", f.Name, err)
			}
		}
		return nil
	default:
		return fmt.Errorf("unsupported kind %s", typ.Kind())
	}
}

func encodeValue(buf []byte, v reflect.Value) ([]byte, error) {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(buf, 1), nil
		}
		return append(buf, 0), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(buf, v.Int()), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.AppendUvarint(buf, v.Uint()), nil
	case reflect.Float32:
		return binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(v.Float()))), nil
	case reflect.Float64:
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float())), nil
	case reflect.Complex64:
		c := v.Complex()
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(real(c))))
		return binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(imag(c)))), nil
	case reflect.Complex128:
		c := v.Complex()
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(real(c)))
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(imag(c))), nil
	case reflect.String:
		s := v.String()
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		return append(buf, s...), nil
	case reflect.Slice:
		if v.IsNil() {
			return append(buf, 0), nil
		}
		buf = append(buf, 1)
		n := v.Len()
		buf = binary.AppendUvarint(buf, uint64(n))
		// Fast path for the paper's Buffer<T> of simple elements.
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return append(buf, v.Bytes()...), nil
		}
		if v.Type().Elem().Kind() == reflect.Float64 {
			for i := 0; i < n; i++ {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Index(i).Float()))
			}
			return buf, nil
		}
		var err error
		for i := 0; i < n; i++ {
			buf, err = encodeValue(buf, v.Index(i))
			if err != nil {
				return buf, err
			}
		}
		return buf, nil
	case reflect.Array:
		var err error
		for i := 0; i < v.Len(); i++ {
			buf, err = encodeValue(buf, v.Index(i))
			if err != nil {
				return buf, err
			}
		}
		return buf, nil
	case reflect.Map:
		if v.IsNil() {
			return append(buf, 0), nil
		}
		buf = append(buf, 1)
		buf = binary.AppendUvarint(buf, uint64(v.Len()))
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return lessValue(keys[i], keys[j]) })
		var err error
		for _, k := range keys {
			if buf, err = encodeValue(buf, k); err != nil {
				return buf, err
			}
			if buf, err = encodeValue(buf, v.MapIndex(k)); err != nil {
				return buf, err
			}
		}
		return buf, nil
	case reflect.Pointer:
		if v.IsNil() {
			return append(buf, 0), nil
		}
		buf = append(buf, 1)
		return encodeValue(buf, v.Elem())
	case reflect.Struct:
		t := v.Type()
		var err error
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() || f.Tag.Get("dps") == "-" {
				continue
			}
			if buf, err = encodeValue(buf, v.Field(i)); err != nil {
				return buf, err
			}
		}
		return buf, nil
	default:
		return buf, fmt.Errorf("serial: cannot encode kind %s", v.Kind())
	}
}

// lessValue orders map keys deterministically so encodings are canonical.
func lessValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() < b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return a.Uint() < b.Uint()
	case reflect.Float32, reflect.Float64:
		return a.Float() < b.Float()
	case reflect.String:
		return a.String() < b.String()
	case reflect.Bool:
		return !a.Bool() && b.Bool()
	default:
		return fmt.Sprint(a.Interface()) < fmt.Sprint(b.Interface())
	}
}

func decodeValue(data []byte, v reflect.Value) (int, error) {
	switch v.Kind() {
	case reflect.Bool:
		if len(data) < 1 {
			return 0, errTruncated("bool")
		}
		v.SetBool(data[0] != 0)
		return 1, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x, n := binary.Varint(data)
		if n <= 0 {
			return 0, errTruncated("varint")
		}
		if v.OverflowInt(x) {
			return 0, fmt.Errorf("serial: value %d overflows %s", x, v.Type())
		}
		v.SetInt(x)
		return n, nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, errTruncated("uvarint")
		}
		if v.OverflowUint(x) {
			return 0, fmt.Errorf("serial: value %d overflows %s", x, v.Type())
		}
		v.SetUint(x)
		return n, nil
	case reflect.Float32:
		if len(data) < 4 {
			return 0, errTruncated("float32")
		}
		v.SetFloat(float64(math.Float32frombits(binary.LittleEndian.Uint32(data))))
		return 4, nil
	case reflect.Float64:
		if len(data) < 8 {
			return 0, errTruncated("float64")
		}
		v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(data)))
		return 8, nil
	case reflect.Complex64:
		if len(data) < 8 {
			return 0, errTruncated("complex64")
		}
		re := math.Float32frombits(binary.LittleEndian.Uint32(data))
		im := math.Float32frombits(binary.LittleEndian.Uint32(data[4:]))
		v.SetComplex(complex(float64(re), float64(im)))
		return 8, nil
	case reflect.Complex128:
		if len(data) < 16 {
			return 0, errTruncated("complex128")
		}
		re := math.Float64frombits(binary.LittleEndian.Uint64(data))
		im := math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
		v.SetComplex(complex(re, im))
		return 16, nil
	case reflect.String:
		l, n := binary.Uvarint(data)
		if n <= 0 || uint64(len(data)-n) < l {
			return 0, errTruncated("string")
		}
		v.SetString(string(data[n : n+int(l)]))
		return n + int(l), nil
	case reflect.Slice:
		if len(data) < 1 {
			return 0, errTruncated("slice presence")
		}
		if data[0] == 0 {
			v.SetZero()
			return 1, nil
		}
		used := 1
		l, n := binary.Uvarint(data[used:])
		if n <= 0 {
			return 0, errTruncated("slice length")
		}
		used += n
		if l > uint64(len(data)) {
			return 0, fmt.Errorf("serial: slice length %d exceeds buffer", l)
		}
		sl := reflect.MakeSlice(v.Type(), int(l), int(l))
		if v.Type().Elem().Kind() == reflect.Uint8 {
			if uint64(len(data)-used) < l {
				return 0, errTruncated("byte slice")
			}
			reflect.Copy(sl, reflect.ValueOf(data[used:used+int(l)]))
			v.Set(sl)
			return used + int(l), nil
		}
		if v.Type().Elem().Kind() == reflect.Float64 {
			if uint64(len(data)-used) < 8*l {
				return 0, errTruncated("float64 slice")
			}
			for i := 0; i < int(l); i++ {
				sl.Index(i).SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(data[used:])))
				used += 8
			}
			v.Set(sl)
			return used, nil
		}
		for i := 0; i < int(l); i++ {
			n, err := decodeValue(data[used:], sl.Index(i))
			if err != nil {
				return 0, err
			}
			used += n
		}
		v.Set(sl)
		return used, nil
	case reflect.Array:
		used := 0
		for i := 0; i < v.Len(); i++ {
			n, err := decodeValue(data[used:], v.Index(i))
			if err != nil {
				return 0, err
			}
			used += n
		}
		return used, nil
	case reflect.Map:
		if len(data) < 1 {
			return 0, errTruncated("map presence")
		}
		if data[0] == 0 {
			v.SetZero()
			return 1, nil
		}
		used := 1
		l, n := binary.Uvarint(data[used:])
		if n <= 0 {
			return 0, errTruncated("map length")
		}
		used += n
		// Every entry costs at least two bytes on the wire; a larger claim
		// is corrupt and would otherwise provoke a giant preallocation.
		if l > uint64(len(data)) {
			return 0, fmt.Errorf("serial: map length %d exceeds buffer", l)
		}
		m := reflect.MakeMapWithSize(v.Type(), int(l))
		for i := uint64(0); i < l; i++ {
			k := reflect.New(v.Type().Key()).Elem()
			n, err := decodeValue(data[used:], k)
			if err != nil {
				return 0, err
			}
			used += n
			e := reflect.New(v.Type().Elem()).Elem()
			n, err = decodeValue(data[used:], e)
			if err != nil {
				return 0, err
			}
			used += n
			m.SetMapIndex(k, e)
		}
		v.Set(m)
		return used, nil
	case reflect.Pointer:
		if len(data) < 1 {
			return 0, errTruncated("pointer presence")
		}
		if data[0] == 0 {
			v.SetZero()
			return 1, nil
		}
		p := reflect.New(v.Type().Elem())
		n, err := decodeValue(data[1:], p.Elem())
		if err != nil {
			return 0, err
		}
		v.Set(p)
		return 1 + n, nil
	case reflect.Struct:
		t := v.Type()
		used := 0
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() || f.Tag.Get("dps") == "-" {
				continue
			}
			n, err := decodeValue(data[used:], v.Field(i))
			if err != nil {
				return 0, fmt.Errorf("field %s: %w", f.Name, err)
			}
			used += n
		}
		return used, nil
	default:
		return 0, fmt.Errorf("serial: cannot decode kind %s", v.Kind())
	}
}

func errTruncated(what string) error {
	return fmt.Errorf("serial: truncated input reading %s", what)
}
