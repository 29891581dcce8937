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
// Registration walks each type once and compiles it into a per-type codec
// program (see codec.go): a tree of closures with precomputed field offsets
// that encode and decode through unsafe pointers, so the per-call hot path
// performs no reflective field walk. The same walk rejects a type that
// holds anything it cannot encode. Primitive slices ([]byte, []float64,
// []int, ...) take bulk fast paths — a single presence byte and length
// prefix followed by a tight loop over the raw backing array — and each
// integer family has one generic implementation for every width. Maps are
// compiled too; reflect only iterates them. Each codec also carries an
// exact size pass, letting EncodedSize and callers preallocate wire buffers
// without marshalling twice; Append therefore performs at most one buffer
// growth per token.
//
// Only exported fields are serialized, mirroring the paper's rule that data
// objects expose their payload as public members. The wire format is
// identical to the original reflection-driven codec, which the tests keep
// (reference_test.go) as the oracle the fuzz tests compare against byte for
// byte.
package serial

import (
	"encoding/binary"
	"fmt"
	"maps"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Registry maps token type names to reflect types and numeric IDs. A single
// process-wide registry (DefaultRegistry) is normally used, matching the
// paper's global class factory, but independent registries can be created
// for tests.
//
// Readers never lock: every token's encode and decode resolves its type
// through the current regTable, an immutable snapshot that a registration
// replaces whole under mu.
type Registry struct {
	mu  sync.Mutex // serializes registrations
	tab atomic.Pointer[regTable]
}

// regTable is one registry snapshot. Nothing in it changes once published.
type regTable struct {
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
	r := &Registry{}
	r.tab.Store(&regTable{byName: make(map[string]int), byType: make(map[reflect.Type]int)})
	return r
}

// table returns the current snapshot.
func (r *Registry) table() *regTable { return r.tab.Load() }

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
	c, err := codecs{}.compile(typ)
	if err != nil {
		return fmt.Errorf("serial: register %q: %w", name, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.table()
	if id, ok := old.byName[name]; ok {
		if old.entries[id].typ != typ {
			return fmt.Errorf("serial: name %q already registered for %s", name, old.entries[id].typ)
		}
		return nil
	}
	if _, ok := old.byType[typ]; ok {
		return fmt.Errorf("serial: type %s already registered", typ)
	}
	id := len(old.entries)
	t := &regTable{
		byName:  maps.Clone(old.byName),
		byType:  maps.Clone(old.byType),
		entries: append(old.entries[:id:id], regEntry{name: name, typ: typ, c: c}),
	}
	t.byName[name] = id
	t.byType[typ] = id
	r.tab.Store(t)
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
	id, ok := r.table().byType[typ]
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
	return r.table().entries[id].name, nil
}

// TypeByName looks up a registered type.
func (r *Registry) TypeByName(name string) (reflect.Type, bool) {
	t := r.table()
	id, ok := t.byName[name]
	if !ok {
		return nil, false
	}
	return t.entries[id].typ, true
}

// Len reports the number of registered types.
func (r *Registry) Len() int {
	return len(r.table().entries)
}

// Marshal encodes v (a pointer to a registered struct, or the struct value
// itself) as typeID + payload.
func (r *Registry) Marshal(v any) ([]byte, error) {
	e, err := r.Prepare(v)
	if err != nil {
		return nil, err
	}
	// Exact-size preallocation: one allocation, no growth copies.
	return e.AppendTo(make([]byte, 0, e.Len())), nil
}

// Append is like Marshal but appends to buf, returning the extended slice.
func (r *Registry) Append(buf []byte, v any) ([]byte, error) {
	e, err := r.Prepare(v)
	if err != nil {
		return buf, err
	}
	return e.AppendTo(buf), nil
}

// Encoding is a value resolved for encoding and measured: a caller that
// frames it learns its exact length before choosing a buffer.
type Encoding struct {
	id, n int
	c     *typeCodec
	p     unsafe.Pointer
}

// Prepare resolves v (as Marshal accepts it) for encoding and runs the
// codec's size pass.
func (r *Registry) Prepare(v any) (Encoding, error) {
	id, c, p, err := r.codecOf(v)
	if err != nil {
		return Encoding{}, err
	}
	return Encoding{id: id, n: uvarintLen(uint64(id)) + c.size(p), c: c, p: p}, nil
}

// Len is the number of bytes AppendTo appends.
func (e Encoding) Len() int { return e.n }

// AppendTo appends the encoding to buf, growing it at most once, to the
// exact final size.
func (e Encoding) AppendTo(buf []byte) []byte {
	if cap(buf)-len(buf) < e.n {
		grown := make([]byte, len(buf), len(buf)+e.n)
		copy(grown, buf)
		buf = grown
	}
	buf = binary.AppendUvarint(buf, uint64(e.id))
	return e.c.enc(buf, e.p)
}

// efaceWords mirrors the runtime layout of an interface value holding a
// pointer-shaped type: the data word is the pointer itself.
type efaceWords struct {
	typ  unsafe.Pointer
	data unsafe.Pointer
}

// lookup resolves a struct type to its ID and compiled codec.
func (r *Registry) lookup(st reflect.Type) (int, *typeCodec, error) {
	t := r.table()
	id, ok := t.byType[st]
	if !ok {
		return 0, nil, fmt.Errorf("serial: type %s not registered", st)
	}
	return id, t.entries[id].c, nil
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
	id, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, 0, fmt.Errorf("serial: truncated type id")
	}
	entries := r.table().entries
	if id >= uint64(len(entries)) {
		return nil, 0, fmt.Errorf("serial: unknown type id %d", id)
	}
	e := &entries[id]
	pv := reflect.New(e.typ)
	used, err := e.c.dec(data[n:], pv.UnsafePointer())
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
	e, err := r.Prepare(v)
	return e.Len(), err
}
