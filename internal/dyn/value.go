package dyn

import (
	"fmt"
	"strconv"
	"strings"
)

// Value is a dynamically typed value of the dyn type system. The zero Value
// is the void value. Values are immutable from the caller's perspective:
// constructors copy composite contents in (the Adopt pair takes ownership
// instead), accessors copy out.
type Value struct {
	t *Type
	// Storage; which field is live depends on t.Kind().
	b     bool
	i     int64
	f     float64
	s     string
	r     rune
	elems []Value // sequence elements or struct field values, in order
}

// VoidValue is the value of type void.
func VoidValue() Value { return Value{t: Void} }

// BoolValue returns a boolean value.
func BoolValue(v bool) Value { return Value{t: Boolean, b: v} }

// CharValue returns a char value.
func CharValue(v rune) Value { return Value{t: Char, r: v} }

// Int32Value returns an int32 value.
func Int32Value(v int32) Value { return Value{t: Int32T, i: int64(v)} }

// Int64Value returns an int64 value.
func Int64Value(v int64) Value { return Value{t: Int64T, i: v} }

// Float32Value returns a float32 value.
func Float32Value(v float32) Value { return Value{t: Float32T, f: float64(v)} }

// Float64Value returns a float64 value.
func Float64Value(v float64) Value { return Value{t: Float64T, f: v} }

// StringValue returns a string value.
func StringValue(v string) Value { return Value{t: StringT, s: v} }

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
		if !e.Type().Equal(elem) {
			return Value{}, fmt.Errorf("dyn: sequence element %d has type %s, want %s", i, e.Type(), elem)
		}
	}
	return Value{t: SequenceOf(elem), elems: elems}, nil
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
		if !fv.Type().Equal(t.fields[i].Type) {
			return Value{}, fmt.Errorf("dyn: struct %s field %s has type %s, want %s",
				t.name, t.fields[i].Name, fv.Type(), t.fields[i].Type)
		}
	}
	return Value{t: t, elems: fieldVals}, nil
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
func (v Value) Bool() bool { return v.b }

// Char returns the char payload.
func (v Value) Char() rune { return v.r }

// Int32 returns the int32 payload.
func (v Value) Int32() int32 { return int32(v.i) }

// Int64 returns the int64 payload.
func (v Value) Int64() int64 { return v.i }

// Float32 returns the float32 payload.
func (v Value) Float32() float32 { return float32(v.f) }

// Float64 returns the float64 payload.
func (v Value) Float64() float64 { return v.f }

// Str returns the string payload.
func (v Value) Str() string { return v.s }

// Len returns the number of sequence elements or struct fields.
func (v Value) Len() int { return len(v.elems) }

// Index returns the i'th sequence element or struct field value.
func (v Value) Index(i int) Value { return v.elems[i] }

// Elems returns a copy of the sequence elements (or struct field values).
func (v Value) Elems() []Value {
	cp := make([]Value, len(v.elems))
	copy(cp, v.elems)
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
			return v.elems[i], true
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
	case KindBoolean:
		return v.b == o.b
	case KindChar:
		return v.r == o.r
	case KindInt32, KindInt64:
		return v.i == o.i
	case KindFloat32, KindFloat64:
		return v.f == o.f
	case KindString:
		return v.s == o.s
	case KindSequence, KindStruct:
		if len(v.elems) != len(o.elems) {
			return false
		}
		for i := range v.elems {
			if !v.elems[i].Equal(o.elems[i]) {
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
		return strconv.FormatBool(v.b)
	case KindChar:
		return strconv.QuoteRune(v.r)
	case KindInt32, KindInt64:
		return strconv.FormatInt(v.i, 10)
	case KindFloat32:
		return strconv.FormatFloat(v.f, 'g', -1, 32)
	case KindFloat64:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.s)
	case KindSequence:
		var b strings.Builder
		b.WriteByte('[')
		for i, e := range v.elems {
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
		for i, e := range v.elems {
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
		return Value{t: t, elems: fv}
	default:
		return Value{}
	}
}
