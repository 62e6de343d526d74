package cdr

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"livedev/internal/dyn"
)

// oracleEncodeValue is EncodeValue as it stood before the type-driven walk:
// one recursive call per value, switching on the value's own type. Kept
// verbatim as the reference TestEncodeValueAgainstOracle and
// FuzzDecodeValue hold the walk to.
func oracleEncodeValue(e *Encoder, v dyn.Value) error {
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
			if err := oracleEncodeValue(e, v.Index(i)); err != nil {
				return err
			}
		}
	case dyn.KindStruct:
		for i := 0; i < v.Len(); i++ {
			if err := oracleEncodeValue(e, v.Index(i)); err != nil {
				return fmt.Errorf("struct %s field %s: %w", t.Name(), t.Field(i).Name, err)
			}
		}
	default:
		return fmt.Errorf("cdr: cannot encode kind %s", t.Kind())
	}
	return nil
}

// oracleDecodeValue is DecodeValue as it stood before the field slab: one
// slice per struct, one allocation per string, and the old length guard
// that only asks one octet of every claimed element. Kept verbatim, but for
// the guard's comparison, as the reference FuzzDecodeValue and the tests
// hold the type-driven walk to. The guard compares the count unconverted:
// int(n) is negative on a 32-bit platform for counts from 2^31, which then
// passed the guard and panicked in make.
func oracleDecodeValue(d *Decoder, t *dyn.Type) (dyn.Value, error) {
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
		// Guard against hostile lengths: each element needs at least one
		// octet on the wire.
		if uint64(n) > uint64(d.Remaining()) {
			return dyn.Value{}, fmt.Errorf("%w: sequence claims %d elements with %d octets left",
				ErrTruncated, n, d.Remaining())
		}
		elems := make([]dyn.Value, int(n))
		for i := range elems {
			ev, err := oracleDecodeValue(d, t.Elem())
			if err != nil {
				return dyn.Value{}, fmt.Errorf("sequence element %d: %w", i, err)
			}
			elems[i] = ev
		}
		return dyn.AdoptSequence(t.Elem(), elems)
	case dyn.KindStruct:
		vals := make([]dyn.Value, t.NumFields())
		for i := range vals {
			f := t.Field(i)
			fv, err := oracleDecodeValue(d, f.Type)
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

// sameValue is dyn.Value.Equal with NaN equal to NaN: a decoder has to hand
// back whatever float the octets spell.
func sameValue(a, b dyn.Value) bool {
	if !a.Type().Equal(b.Type()) || a.Len() != b.Len() {
		return false
	}
	switch a.Type().Kind() {
	case dyn.KindFloat32, dyn.KindFloat64:
		return a.Float64() == b.Float64() || math.IsNaN(a.Float64()) && math.IsNaN(b.Float64())
	case dyn.KindSequence, dyn.KindStruct:
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

var (
	// itemType is the element of the benchmark's bulk payload.
	itemType = dyn.MustStructOf("Item",
		dyn.StructField{Name: "id", Type: dyn.Int32T},
		dyn.StructField{Name: "tag", Type: dyn.StringT},
		dyn.StructField{Name: "score", Type: dyn.Float64T})
	// nestType puts a struct and a struct sequence inside a struct, so one
	// slab serves fields at three depths.
	nestType = dyn.MustStructOf("Nest",
		dyn.StructField{Name: "head", Type: itemType},
		dyn.StructField{Name: "rest", Type: dyn.SequenceOf(itemType)},
		dyn.StructField{Name: "ok", Type: dyn.Boolean},
		dyn.StructField{Name: "f", Type: dyn.Float32T})
	// voidsType takes no octets at all: nothing on the wire bounds how many
	// of them a sequence may claim but the one-octet floor.
	voidsType = dyn.MustStructOf("Voids",
		dyn.StructField{Name: "v", Type: dyn.Void},
		dyn.StructField{Name: "w", Type: dyn.Void})
)

// itemSeq builds a sequence of n Items: 256 of them are the benchmark's bulk
// payload.
func itemSeq(n int) dyn.Value {
	vals := make([]dyn.Value, n)
	for i := range vals {
		vals[i] = dyn.MustStructValue(itemType, dyn.Int32Value(int32(i)), dyn.StringValue("sixteen-byte-tag"), dyn.Float64Value(float64(i)/8))
	}
	return dyn.MustSequenceValue(itemType, vals...)
}

// codecTypes are the shapes the differential checks decode against.
var codecTypes = []*dyn.Type{
	dyn.Void, dyn.Boolean, dyn.Char, dyn.Int32T, dyn.Int64T, dyn.Float32T, dyn.Float64T, dyn.StringT,
	dyn.SequenceOf(dyn.Int32T), dyn.SequenceOf(dyn.StringT), dyn.SequenceOf(dyn.SequenceOf(dyn.Boolean)),
	itemType, dyn.SequenceOf(itemType), dyn.SequenceOf(dyn.SequenceOf(itemType)),
	nestType, dyn.SequenceOf(nestType), voidsType, dyn.SequenceOf(voidsType), dyn.SequenceOf(dyn.Void),
}

// checkDecode holds DecodeValue to the oracle on one stream. Both accept or
// both refuse: the tightened length guard turns away only claims whose
// elements' minimum sizes exceed the octets left, which the oracle cannot
// finish decoding either, so the guard moves a refusal earlier (and makes it
// ErrTruncated) but never adds one. What is accepted is the same value read
// off the same octets, which EncodeValue and the oracle encoder write as the
// same octets, and a fixed point of encode and decode.
func checkDecode(t *testing.T, raw []byte, typ *dyn.Type, order ByteOrder) {
	t.Helper()
	wd, gd := NewDecoder(raw, order), NewDecoder(raw, order)
	want, werr := oracleDecodeValue(wd, typ)
	got, gerr := DecodeValue(gd, typ)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%s, %v: oracle error %v, decoder error %v\n%x", typ, order, werr, gerr, raw)
	}
	if werr != nil {
		if errors.Is(werr, ErrTruncated) && !errors.Is(gerr, ErrTruncated) {
			t.Fatalf("%s, %v: oracle says truncated (%v), decoder says %v\n%x", typ, order, werr, gerr, raw)
		}
		return
	}
	if !sameValue(got, want) || gd.Pos() != wd.Pos() {
		t.Fatalf("%s, %v: oracle %v up to %d, decoder %v up to %d\n%x", typ, order, want, wd.Pos(), got, gd.Pos(), raw)
	}
	e, oe := NewEncoder(order), NewEncoder(order)
	if err, oerr := EncodeValue(e, got), oracleEncodeValue(oe, got); err != nil || oerr != nil || !bytes.Equal(e.Bytes(), oe.Bytes()) {
		t.Fatalf("%s, %v: re-encoding %v: %v, oracle %v\n%x\n%x", typ, order, got, err, oerr, e.Bytes(), oe.Bytes())
	}
	if hasEmptyElems(typ) {
		return
	}
	ad := NewDecoder(e.Bytes(), order)
	again, err := DecodeValue(ad, typ)
	if err != nil || !sameValue(again, got) || ad.Remaining() != 0 {
		t.Fatalf("%s, %v: %v re-decodes to %v (%v), %d octets left", typ, order, got, again, err, ad.Remaining())
	}
	e2 := NewEncoder(order)
	if err := EncodeValue(e2, again); err != nil || !bytes.Equal(e2.Bytes(), e.Bytes()) {
		t.Fatalf("%s, %v: not a fixed point (%v):\n%x\n%x", typ, order, err, e.Bytes(), e2.Bytes())
	}
}

// hasEmptyElems reports whether t holds a sequence of elements that take no
// octets. Those do not round-trip, before this decoder or with it: the
// encoder writes n of them as a bare count, and the length guard, which
// asks an octet of every element, admits the count only with n octets of
// something else behind it.
func hasEmptyElems(t *dyn.Type) bool {
	switch t.Kind() {
	case dyn.KindSequence:
		return minSize(t.Elem()) == 0 || hasEmptyElems(t.Elem())
	case dyn.KindStruct:
		for i := 0; i < t.NumFields(); i++ {
			if hasEmptyElems(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestDecodeValueAgainstOracle runs the differential check over random
// values of every shape in both byte orders, whole and cut short at every
// offset.
func TestDecodeValueAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for _, typ := range codecTypes {
		for _, order := range []ByteOrder{BigEndian, LittleEndian} {
			for range 8 {
				e := NewEncoder(order)
				if err := EncodeValue(e, randomOfType(r, typ)); err != nil {
					t.Fatal(err)
				}
				raw := e.Bytes()
				for cut := len(raw); cut >= 0; cut-- {
					checkDecode(t, raw[:cut], typ, order)
				}
			}
		}
	}
}

// randomOfType builds a random CDR-encodable value of exactly type t.
func randomOfType(r *rand.Rand, t *dyn.Type) dyn.Value {
	switch t.Kind() {
	case dyn.KindSequence:
		vals := make([]dyn.Value, r.Intn(5))
		for i := range vals {
			vals[i] = randomOfType(r, t.Elem())
		}
		return dyn.MustSequenceValue(t.Elem(), vals...)
	case dyn.KindStruct:
		vals := make([]dyn.Value, t.NumFields())
		for i := range vals {
			vals[i] = randomOfType(r, t.Field(i).Type)
		}
		return dyn.MustStructValue(t, vals...)
	case dyn.KindString:
		b := make([]byte, r.Intn(20))
		for i := range b {
			b[i] = byte(' ' + r.Intn(94))
		}
		return dyn.StringValue(string(b))
	default:
		return cloneShape(r, dyn.Zero(t))
	}
}

// TestEncodeValueAgainstOracle holds EncodeValue to the recursive encoder it
// replaced: the same octets for random values of every shape in both byte
// orders, with 0 to 7 octets already written so every alignment is met, and
// the same error, after the same octets, for a wide char alone and inside a
// struct inside a sequence.
func TestEncodeValueAgainstOracle(t *testing.T) {
	wide := dyn.MustStructOf("Wide",
		dyn.StructField{Name: "n", Type: dyn.Int32T},
		dyn.StructField{Name: "c", Type: dyn.Char})
	values := []dyn.Value{ // the two that must fail, then the random ones
		dyn.CharValue('λ'),
		dyn.MustSequenceValue(wide,
			dyn.MustStructValue(wide, dyn.Int32Value(1), dyn.CharValue('a')),
			dyn.MustStructValue(wide, dyn.Int32Value(2), dyn.CharValue('λ'))),
	}
	r := rand.New(rand.NewSource(42))
	for _, typ := range codecTypes {
		for range 8 {
			values = append(values, randomOfType(r, typ))
		}
	}
	for vi, v := range values {
		for _, order := range []ByteOrder{BigEndian, LittleEndian} {
			for start := range 8 {
				e, oe := NewEncoder(order), NewEncoder(order)
				for i := range start {
					e.WriteOctet(byte(i))
					oe.WriteOctet(byte(i))
				}
				err, oerr := EncodeValue(e, v), oracleEncodeValue(oe, v)
				if fmt.Sprint(err) != fmt.Sprint(oerr) || !bytes.Equal(e.Bytes(), oe.Bytes()) {
					t.Fatalf("%v, %v from %d: %v, oracle %v\n%x\n%x", v, order, start, err, oerr, e.Bytes(), oe.Bytes())
				}
				if (err != nil) != (vi < 2) {
					t.Fatalf("%v: error %v", v, err)
				}
			}
		}
	}
}
