package cdr

import (
	"fmt"

	"livedev/internal/dyn"
)

// This file maps the dyn type system onto CDR, following the standard
// IDL-to-CDR rules: boolean→boolean, char→char, int32→long,
// int64→long long, float32→float, float64→double, string→string,
// sequence<T>→sequence, struct→fields in declaration order with no
// padding beyond each field's own alignment.

// EncodeValue appends v to the stream according to its dyn type.
func EncodeValue(e *Encoder, v dyn.Value) error {
	t := v.Type()
	switch t.Kind() {
	case dyn.KindVoid:
		return nil // void occupies no octets
	case dyn.KindBoolean:
		e.WriteBool(v.Bool())
	case dyn.KindChar:
		c := v.Char()
		if c > 0xFF {
			return fmt.Errorf("cdr: char %q exceeds one octet (CORBA char is ISO 8859-1)", c)
		}
		e.WriteChar(byte(c))
	case dyn.KindInt32:
		e.WriteLong(v.Int32())
	case dyn.KindInt64:
		e.WriteLongLong(v.Int64())
	case dyn.KindFloat32:
		e.WriteFloat(v.Float32())
	case dyn.KindFloat64:
		e.WriteDouble(v.Float64())
	case dyn.KindString:
		e.WriteString(v.Str())
	case dyn.KindSequence:
		e.WriteULong(uint32(v.Len()))
		for i := 0; i < v.Len(); i++ {
			if err := EncodeValue(e, v.Index(i)); err != nil {
				return err
			}
		}
	case dyn.KindStruct:
		for i := 0; i < v.Len(); i++ {
			if err := EncodeValue(e, v.Index(i)); err != nil {
				return fmt.Errorf("struct %s field %s: %w", t.Name(), t.Field(i).Name, err)
			}
		}
	default:
		return fmt.Errorf("cdr: cannot encode kind %s", t.Kind())
	}
	return nil
}

// DecodeValue reads a value of type t from the stream. The structs of one
// decoded sequence share the backing array of their field values (see the
// Decoder's copy discipline).
func DecodeValue(d *Decoder, t *dyn.Type) (dyn.Value, error) {
	var fields dyn.Slab // dropped with this decode
	return decodeValue(d, t, &fields)
}

// minSize returns the fewest octets a value of type t takes on the wire,
// alignment padding aside.
func minSize(t *dyn.Type) int {
	switch t.Kind() {
	case dyn.KindBoolean, dyn.KindChar:
		return 1
	case dyn.KindInt32, dyn.KindFloat32:
		return 4
	case dyn.KindInt64, dyn.KindFloat64:
		return 8
	case dyn.KindString:
		return 4 + 1 // the length and the NUL
	case dyn.KindSequence:
		return 4 // the length
	case dyn.KindStruct:
		n := 0
		for i := 0; i < t.NumFields(); i++ {
			n += minSize(t.Field(i).Type)
		}
		return n
	default:
		return 0
	}
}

func decodeValue(d *Decoder, t *dyn.Type, fields *dyn.Slab) (dyn.Value, error) {
	switch t.Kind() {
	case dyn.KindVoid:
		return dyn.VoidValue(), nil
	case dyn.KindBoolean:
		b, err := d.ReadBool()
		if err != nil {
			return dyn.Value{}, err
		}
		return dyn.BoolValue(b), nil
	case dyn.KindChar:
		c, err := d.ReadChar()
		if err != nil {
			return dyn.Value{}, err
		}
		return dyn.CharValue(rune(c)), nil
	case dyn.KindInt32:
		v, err := d.ReadLong()
		if err != nil {
			return dyn.Value{}, err
		}
		return dyn.Int32Value(v), nil
	case dyn.KindInt64:
		v, err := d.ReadLongLong()
		if err != nil {
			return dyn.Value{}, err
		}
		return dyn.Int64Value(v), nil
	case dyn.KindFloat32:
		v, err := d.ReadFloat()
		if err != nil {
			return dyn.Value{}, err
		}
		return dyn.Float32Value(v), nil
	case dyn.KindFloat64:
		v, err := d.ReadDouble()
		if err != nil {
			return dyn.Value{}, err
		}
		return dyn.Float64Value(v), nil
	case dyn.KindString:
		s, err := d.ReadString()
		if err != nil {
			return dyn.Value{}, err
		}
		return dyn.StringValue(s), nil
	case dyn.KindSequence:
		n, err := d.ReadULong()
		if err != nil {
			return dyn.Value{}, err
		}
		// Guard against hostile lengths before allocating by them: every
		// element needs its type's minimum on the wire (one octet where
		// that is none), which keeps what a lying length can allocate
		// within a small constant of the message size.
		elem := t.Elem()
		if uint64(n) > uint64(d.Remaining()/max(minSize(elem), 1)) {
			return dyn.Value{}, fmt.Errorf("%w: sequence claims %d elements with %d octets left",
				ErrTruncated, n, d.Remaining())
		}
		if elem.Kind() == dyn.KindStruct {
			// Void fields take no octets, so the octets left cap this too.
			fields.Grow(min(int(n)*elem.NumFields(), d.Remaining()))
		}
		elems := make([]dyn.Value, int(n))
		for i := range elems {
			ev, err := decodeValue(d, elem, fields)
			if err != nil {
				return dyn.Value{}, fmt.Errorf("sequence element %d: %w", i, err)
			}
			elems[i] = ev
		}
		return dyn.AdoptSequence(elem, elems)
	case dyn.KindStruct:
		vals := fields.Take(t.NumFields())
		for i := range vals {
			f := t.Field(i)
			fv, err := decodeValue(d, f.Type, fields)
			if err != nil {
				return dyn.Value{}, fmt.Errorf("struct %s field %s: %w", t.Name(), f.Name, err)
			}
			vals[i] = fv
		}
		return dyn.AdoptStruct(t, vals)
	default:
		return dyn.Value{}, fmt.Errorf("cdr: cannot decode kind %s", t.Kind())
	}
}
