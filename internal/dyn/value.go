package dyn

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"

	"livedev/internal/decfloat"
)

// Value is a dynamically typed value of the dyn type system. The zero Value
// is the void value. Values are immutable from the caller's perspective:
// constructors copy composite contents in (the Adopt pair takes ownership
// instead), accessors copy out.
//
// A Value is three words, and this file is the only one that knows which:
// the type, one payload word and one pointer. Copying a value copies those
// and shares what the pointer reaches — string bytes, or the elements of a
// sequence or fields of a struct. Decoders carve the field slices of one
// struct sequence out of a shared Slab chunk, so the structs of a decoded
// sequence share a backing array: retaining one element retains its chunk.
type Value struct {
	_ [0]func() // not comparable: == on values must stay a compile error
	t *Type
	// n is the payload of a scalar — 0 or 1, a rune, a sign-extended
	// integer, math.Float64bits of a float of either width — or counts what
	// p points at: the bytes of a string, the elements of a sequence, the
	// field values of a struct, in order.
	n uint64
	p unsafe.Pointer
}

// kind is Type().Kind() without materialising Void for the zero Value.
func (v Value) kind() Kind {
	if v.t == nil {
		return KindVoid
	}
	return v.t.kind
}

// composite builds the sequence or struct value of type t over elems.
func composite(t *Type, elems []Value) Value {
	return Value{t: t, n: uint64(len(elems)), p: unsafe.Pointer(unsafe.SliceData(elems))}
}

// elems returns the sequence elements or struct field values themselves
// (nil for any other kind), with no spare capacity to append into.
func (v Value) elems() []Value {
	switch v.kind() {
	case KindSequence, KindStruct:
		return unsafe.Slice((*Value)(v.p), int(v.n))
	}
	return nil
}

// VoidValue is the value of type void.
func VoidValue() Value { return Value{t: Void} }

// BoolValue returns a boolean value.
func BoolValue(v bool) Value {
	if v {
		return Value{t: Boolean, n: 1}
	}
	return Value{t: Boolean}
}

// CharValue returns a char value.
func CharValue(v rune) Value { return Value{t: Char, n: uint64(v)} }

// Int32Value returns an int32 value.
func Int32Value(v int32) Value { return Value{t: Int32T, n: uint64(v)} }

// Int64Value returns an int64 value.
func Int64Value(v int64) Value { return Value{t: Int64T, n: uint64(v)} }

// Float32Value returns a float32 value.
func Float32Value(v float32) Value { return Value{t: Float32T, n: math.Float64bits(float64(v))} }

// Float64Value returns a float64 value.
func Float64Value(v float64) Value { return Value{t: Float64T, n: math.Float64bits(v)} }

// StringValue returns a string value.
func StringValue(v string) Value {
	return Value{t: StringT, n: uint64(len(v)), p: unsafe.Pointer(unsafe.StringData(v))}
}

// SequenceValue returns a sequence value of the given element type. Every
// element must have exactly that type. The elements are copied in; the
// caller keeps its slice.
func SequenceValue(elem *Type, elems ...Value) (Value, error) {
	return AdoptSequence(elem, append([]Value(nil), elems...))
}

// AdoptSequence is SequenceValue without the copy: it runs the same checks
// and returns the same errors, but the value takes ownership of elems. The
// caller gives up the slice and must not read, write or retain it afterwards
// — it is for decoders that have just built the slice for this value.
func AdoptSequence(elem *Type, elems []Value) (Value, error) {
	if elem == nil {
		return Value{}, fmt.Errorf("dyn: sequence needs an element type")
	}
	for i, e := range elems {
		if e.t != elem && !e.Type().Equal(elem) {
			return Value{}, fmt.Errorf("dyn: sequence element %d has type %s, want %s", i, e.Type(), elem)
		}
	}
	return composite(SequenceOf(elem), elems), nil
}

// MustSequenceValue is SequenceValue but panics on error.
func MustSequenceValue(elem *Type, elems ...Value) Value {
	v, err := SequenceValue(elem, elems...)
	if err != nil {
		panic(err)
	}
	return v
}

// StructValue returns a value of the given struct type with field values
// given in declaration order. The values are copied in; the caller keeps its
// slice.
func StructValue(t *Type, fieldVals ...Value) (Value, error) {
	return AdoptStruct(t, append([]Value(nil), fieldVals...))
}

// AdoptStruct is StructValue without the copy: it runs the same checks and
// returns the same errors, but the value takes ownership of fieldVals. The
// caller gives up the slice and must not read, write or retain it afterwards
// — it is for decoders that have just built the slice for this value.
func AdoptStruct(t *Type, fieldVals []Value) (Value, error) {
	if t == nil || t.Kind() != KindStruct {
		return Value{}, fmt.Errorf("dyn: StructValue needs a struct type, got %s", t)
	}
	if len(fieldVals) != len(t.fields) {
		return Value{}, fmt.Errorf("dyn: struct %s has %d fields, got %d values", t.name, len(t.fields), len(fieldVals))
	}
	for i, fv := range fieldVals {
		if want := t.fields[i].Type; fv.t != want && !fv.Type().Equal(want) {
			return Value{}, fmt.Errorf("dyn: struct %s field %s has type %s, want %s",
				t.name, t.fields[i].Name, fv.Type(), t.fields[i].Type)
		}
	}
	return composite(t, fieldVals), nil
}

// MustStructValue is StructValue but panics on error.
func MustStructValue(t *Type, fieldVals ...Value) Value {
	v, err := StructValue(t, fieldVals...)
	if err != nil {
		panic(err)
	}
	return v
}

// Type returns the value's type; the zero Value reports Void.
func (v Value) Type() *Type {
	if v.t == nil {
		return Void
	}
	return v.t
}

// IsVoid reports whether the value is the void value.
func (v Value) IsVoid() bool { return v.Type().Kind() == KindVoid }

// Bool returns the boolean payload (false if not a boolean).
func (v Value) Bool() bool { return v.kind() == KindBoolean && v.n != 0 }

// Char returns the char payload (0 if not a char).
func (v Value) Char() rune {
	if v.kind() != KindChar {
		return 0
	}
	return rune(v.n)
}

// Int32 returns the int32 payload: of an int64 value its low 32 bits, of
// anything but an integer 0.
func (v Value) Int32() int32 { return int32(v.Int64()) }

// Int64 returns the integer payload of either width (0 if not an integer).
func (v Value) Int64() int64 {
	switch v.kind() {
	case KindInt32, KindInt64:
		return int64(v.n)
	}
	return 0
}

// Float32 returns the float32 payload: a float64 value rounded, of anything
// but a float 0.
func (v Value) Float32() float32 { return float32(v.Float64()) }

// Float64 returns the float payload of either width (0 if not a float).
func (v Value) Float64() float64 {
	switch v.kind() {
	case KindFloat32, KindFloat64:
		return math.Float64frombits(v.n)
	}
	return 0
}

// Str returns the string payload ("" if not a string).
func (v Value) Str() string {
	if v.kind() != KindString {
		return ""
	}
	return unsafe.String((*byte)(v.p), int(v.n))
}

// Len returns the number of sequence elements or struct fields (0 for any
// other kind).
func (v Value) Len() int { return len(v.elems()) }

// Index returns the i'th sequence element or struct field value.
func (v Value) Index(i int) Value { return v.elems()[i] }

// Elems returns a copy of the sequence elements (or struct field values).
func (v Value) Elems() []Value {
	es := v.elems()
	cp := make([]Value, len(es))
	copy(cp, es)
	return cp
}

// Field returns the value of the named struct field.
func (v Value) Field(name string) (Value, bool) {
	t := v.Type()
	if t.Kind() != KindStruct {
		return Value{}, false
	}
	for i, f := range t.fields {
		if f.Name == name {
			return v.elems()[i], true
		}
	}
	return Value{}, false
}

// Equal reports deep equality of type and payload.
func (v Value) Equal(o Value) bool {
	if !v.Type().Equal(o.Type()) {
		return false
	}
	switch v.Type().Kind() {
	case KindVoid:
		return true
	case KindBoolean, KindChar, KindInt32, KindInt64:
		return v.n == o.n
	case KindFloat32, KindFloat64:
		// As floats, not as bits: NaN differs from itself, -0 equals +0.
		return v.Float64() == o.Float64()
	case KindString:
		return v.Str() == o.Str()
	case KindSequence, KindStruct:
		ve, oe := v.elems(), o.elems()
		if len(ve) != len(oe) {
			return false
		}
		for i := range ve {
			if !ve[i].Equal(oe[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.Type().Kind() {
	case KindVoid:
		return "void"
	case KindBoolean:
		return strconv.FormatBool(v.Bool())
	case KindChar:
		return strconv.QuoteRune(v.Char())
	case KindInt32, KindInt64:
		return strconv.FormatInt(v.Int64(), 10)
	case KindFloat32:
		return string(decfloat.AppendFloat(nil, v.Float64(), 'g', 32))
	case KindFloat64:
		return string(decfloat.AppendFloat(nil, v.Float64(), 'g', 64))
	case KindString:
		return strconv.Quote(v.Str())
	case KindSequence:
		var b strings.Builder
		b.WriteByte('[')
		for i, e := range v.elems() {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(e.String())
		}
		b.WriteByte(']')
		return b.String()
	case KindStruct:
		var b strings.Builder
		b.WriteString(v.t.name)
		b.WriteByte('{')
		for i, e := range v.elems() {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(v.t.fields[i].Name)
			b.WriteByte(':')
			b.WriteString(e.String())
		}
		b.WriteByte('}')
		return b.String()
	default:
		return "<invalid>"
	}
}

// Zero returns the zero value of a type: false, 0, "", the empty sequence,
// or a struct with zero-valued fields.
func Zero(t *Type) Value {
	if t == nil {
		return VoidValue()
	}
	switch t.Kind() {
	case KindVoid:
		return VoidValue()
	case KindBoolean:
		return BoolValue(false)
	case KindChar:
		return CharValue(0)
	case KindInt32:
		return Int32Value(0)
	case KindInt64:
		return Int64Value(0)
	case KindFloat32:
		return Float32Value(0)
	case KindFloat64:
		return Float64Value(0)
	case KindString:
		return StringValue("")
	case KindSequence:
		return Value{t: t}
	case KindStruct:
		fv := make([]Value, len(t.fields))
		for i, f := range t.fields {
			fv[i] = Zero(f.Type)
		}
		return composite(t, fv)
	default:
		return Value{}
	}
}
