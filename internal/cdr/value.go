package cdr

import (
	"fmt"
	"math"

	"livedev/internal/dyn"
)

// This file maps the dyn type system onto CDR, following the standard
// IDL-to-CDR rules: boolean→boolean, char→char, int32→long,
// int64→long long, float32→float, float64→double, string→string,
// sequence<T>→sequence, struct→fields in declaration order with no
// padding beyond each field's own alignment.

// EncodeValue appends v to the stream according to its dyn type.
func EncodeValue(e *Encoder, v dyn.Value) error { return encodeValue(e, v.Type(), v) }

// encodeValue appends v, whose type is t, in one walk the type drives: a
// sequence or struct loops over its elements or fields and writes the
// scalars among them inline, recursing only into nested composites. A scalar
// t is walked as a composite of one, itself.
func encodeValue(e *Encoder, t *dyn.Type, v dyn.Value) error {
	k, n, xt := t.Kind(), v.Len(), t
	composite := k == dyn.KindSequence || k == dyn.KindStruct
	if !composite {
		n = 1
	} else if k == dyn.KindSequence {
		xt = t.Elem()
		e.WriteULong(uint32(n))
	}
	for i := range n {
		x := v
		if composite {
			x = v.Index(i)
		}
		if k == dyn.KindStruct {
			xt = t.Field(i).Type
		}
		var err error
		switch xt.Kind() {
		case dyn.KindVoid: // void occupies no octets
		case dyn.KindBoolean:
			e.WriteBool(x.Bool())
		case dyn.KindChar:
			if c := x.Char(); c > 0xFF {
				err = fmt.Errorf("cdr: char %q exceeds one octet (CORBA char is ISO 8859-1)", c)
			} else {
				e.WriteChar(byte(c))
			}
		case dyn.KindInt32:
			e.WriteLong(x.Int32())
		case dyn.KindInt64:
			e.WriteLongLong(x.Int64())
		case dyn.KindFloat32:
			e.WriteFloat(x.Float32())
		case dyn.KindFloat64:
			e.WriteDouble(x.Float64())
		case dyn.KindString:
			e.WriteString(x.Str())
		case dyn.KindSequence, dyn.KindStruct:
			err = encodeValue(e, xt, x)
		default:
			err = fmt.Errorf("cdr: cannot encode kind %s", xt.Kind())
		}
		if err != nil {
			if k == dyn.KindStruct {
				return fmt.Errorf("struct %s field %s: %w", t.Name(), t.Field(i).Name, err)
			}
			return err
		}
	}
	return nil
}

// DecodeValue reads a value of type t from the stream. The values of one
// decode share memory: the structs of a decoded sequence share the backing
// array of their field values, and its strings share their bytes (see the
// Decoder's copy discipline).
func DecodeValue(d *Decoder, t *dyn.Type) (dyn.Value, error) {
	var s dyn.Slab // dropped with this decode
	return decodeValue(d, t, &s)
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

// decodeValue reads a value of type t in the walk encodeValue makes, the
// struct field slices and (outside zero-copy mode) the strings carved from s.
func decodeValue(d *Decoder, t *dyn.Type, s *dyn.Slab) (dyn.Value, error) {
	k, n, xt := t.Kind(), 1, t
	composite := k == dyn.KindSequence || k == dyn.KindStruct
	var vals []dyn.Value
	switch k {
	case dyn.KindSequence:
		c, err := d.ReadULong()
		if err != nil {
			return dyn.Value{}, err
		}
		// Guard against hostile lengths before allocating by them: every
		// element needs its type's minimum on the wire (one octet where
		// that is none), which keeps what a lying length can allocate
		// within a small constant of the message size. Past the guard the
		// count is at most the octets left, so an int holds it.
		xt = t.Elem()
		if uint64(c) > uint64(d.Remaining()/max(minSize(xt), 1)) {
			return dyn.Value{}, fmt.Errorf("%w: sequence claims %d elements with %d octets left",
				ErrTruncated, c, d.Remaining())
		}
		n = int(c)
		if nf := xt.NumFields(); nf > 0 {
			// Void fields take no octets, so the octets left cap this too.
			s.Grow(min(n, d.Remaining()/nf) * nf)
		}
		vals = make([]dyn.Value, n)
	case dyn.KindStruct:
		n = t.NumFields()
		vals = s.Take(n)
	}
	for i := range n {
		if k == dyn.KindStruct {
			xt = t.Field(i).Type
		}
		var x dyn.Value
		var err error
		switch xt.Kind() {
		case dyn.KindVoid:
			x = dyn.VoidValue()
		case dyn.KindBoolean:
			if b := d.next(1); b != nil {
				x = dyn.BoolValue(b[0] != 0)
			} else {
				err = d.short(1)
			}
		case dyn.KindChar:
			if b := d.next(1); b != nil {
				x = dyn.CharValue(rune(b[0]))
			} else {
				err = d.short(1)
			}
		case dyn.KindInt32:
			if b := d.next(4); b != nil {
				x = dyn.Int32Value(int32(d.u32(b)))
			} else {
				err = d.short(4)
			}
		case dyn.KindInt64:
			if b := d.next(8); b != nil {
				x = dyn.Int64Value(int64(d.u64(b)))
			} else {
				err = d.short(8)
			}
		case dyn.KindFloat32:
			if b := d.next(4); b != nil {
				x = dyn.Float32Value(math.Float32frombits(d.u32(b)))
			} else {
				err = d.short(4)
			}
		case dyn.KindFloat64:
			if b := d.next(8); b != nil {
				x = dyn.Float64Value(math.Float64frombits(d.u64(b)))
			} else {
				err = d.short(8)
			}
		case dyn.KindString:
			var raw []byte
			if raw, err = d.stringOctets(); d.zeroCopy {
				x = dyn.StringValue(view(raw))
			} else {
				x = dyn.StringValue(s.CopyString(raw, d.Remaining()))
			}
		case dyn.KindSequence, dyn.KindStruct:
			x, err = decodeValue(d, xt, s)
		default:
			err = fmt.Errorf("cdr: cannot decode kind %s", xt.Kind())
		}
		switch {
		case err != nil && k == dyn.KindSequence:
			return dyn.Value{}, fmt.Errorf("sequence element %d: %w", i, err)
		case err != nil && k == dyn.KindStruct:
			return dyn.Value{}, fmt.Errorf("struct %s field %s: %w", t.Name(), t.Field(i).Name, err)
		case err != nil:
			return dyn.Value{}, err
		case !composite:
			return x, nil
		}
		vals[i] = x
	}
	if k == dyn.KindSequence {
		return dyn.AdoptSequence(xt, vals)
	}
	return dyn.AdoptStruct(t, vals)
}
