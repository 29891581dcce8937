package serial

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
)

// The reference codec: the original reflection-driven encoder and decoder.
// It is a second, independent implementation of the wire format, and the
// fuzz and equivalence tests hold the compiled codecs to it byte for byte.

// marshalReference encodes v as Marshal does, by reflection.
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

// unmarshalReference decodes as Unmarshal does, by reflection.
func (r *Registry) unmarshalReference(data []byte) (any, int, error) {
	id, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, 0, fmt.Errorf("serial: truncated type id")
	}
	entries := r.table().entries
	if id >= uint64(len(entries)) {
		return nil, 0, fmt.Errorf("serial: unknown type id %d", id)
	}
	typ := entries[id].typ
	pv := reflect.New(typ)
	used, err := decodeValue(data[n:], pv.Elem())
	if err != nil {
		return nil, 0, err
	}
	return pv.Interface(), n + used, nil
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
