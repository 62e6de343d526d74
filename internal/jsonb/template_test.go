package jsonb

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"testing"

	"livedev/internal/dyn"
	"livedev/internal/jsonstr"
)

// itemByItemValue is appendValue as it was before a sequence of structs
// wrote its member names once: every struct through the whole value
// writer, and floats through strconv.
func itemByItemValue(buf []byte, v dyn.Value) ([]byte, error) {
	t := v.Type()
	switch t.Kind() {
	case dyn.KindVoid:
		return append(buf, "null"...), nil
	case dyn.KindBoolean:
		return strconv.AppendBool(buf, v.Bool()), nil
	case dyn.KindChar:
		return jsonstr.Append(buf, string(v.Char())), nil
	case dyn.KindInt32:
		return strconv.AppendInt(buf, int64(v.Int32()), 10), nil
	case dyn.KindInt64:
		buf = append(buf, '"')
		buf = strconv.AppendInt(buf, v.Int64(), 10)
		return append(buf, '"'), nil
	case dyn.KindFloat32:
		return itemByItemFloat(buf, float64(v.Float32()), 32)
	case dyn.KindFloat64:
		return itemByItemFloat(buf, v.Float64(), 64)
	case dyn.KindString:
		return jsonstr.Append(buf, v.Str()), nil
	case dyn.KindSequence:
		buf = append(buf, '[')
		var err error
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				buf = append(buf, ',')
			}
			if buf, err = itemByItemValue(buf, v.Index(i)); err != nil {
				return buf, err
			}
		}
		return append(buf, ']'), nil
	case dyn.KindStruct:
		buf = append(buf, '{')
		var err error
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = jsonstr.Append(buf, t.Field(i).Name)
			buf = append(buf, ':')
			if buf, err = itemByItemValue(buf, v.Index(i)); err != nil {
				return buf, err
			}
		}
		return append(buf, '}'), nil
	default:
		return buf, fmt.Errorf("jsonb: cannot encode %s values", t)
	}
}

// itemByItemFloat is appendFloat on strconv.
func itemByItemFloat(buf []byte, f float64, bits int) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return buf, fmt.Errorf("jsonb: cannot encode %v: JSON has no form for it", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 {
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) || bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	buf = strconv.AppendFloat(buf, f, format, -1, bits)
	if n := len(buf); format == 'e' && n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
		buf[n-2] = buf[n-1]
		buf = buf[:n-1]
	}
	return buf, nil
}

// Members and values the template oracle draws from: names that need
// escaping, every kind including composites, strings and chars that are
// empty, escaped or not ASCII, and floats on both sides of the exact
// formatter's bound, in JSON's exponent forms, and not finite.
var (
	templateNames   = []string{"id", "tag", "score", "a\"b", "<é>", "\u2028"}
	templateKinds   = []*dyn.Type{dyn.Boolean, dyn.Char, dyn.Int32T, dyn.Int64T, dyn.Float32T, dyn.Float64T, dyn.StringT}
	templateStrings = []string{"", "tag-000000000042", "&<>", "\"\\", "héllo ☃", "\x01\xff"}
	templateChars   = []rune{'a', '"', '<', 'é', '☃', 0}
	templateFloats  = []float64{0, math.Copysign(0, -1), 42, -3.75, 2097151.9990234375, 0.1, 1e6, 1e-5,
		0x1p-17, 0x1p-21, 1e-7, 1e21, 0x1p70, math.Inf(1), math.Inf(-1), math.NaN()}
)

// randomStruct is a struct of up to four members, now and then a void, a
// struct or a sequence.
func randomStruct(rng *rand.Rand, depth int) *dyn.Type {
	var fields []dyn.StructField
	for _, i := range rng.Perm(len(templateNames))[:rng.IntN(5)] {
		t := templateKinds[rng.IntN(len(templateKinds))]
		switch rng.IntN(8) {
		case 0:
			t = dyn.Void
		case 1:
			if depth < 2 {
				t = dyn.SequenceOf(randomStruct(rng, depth+1))
			}
		case 2:
			if depth < 2 {
				t = randomStruct(rng, depth+1)
			}
		}
		fields = append(fields, dyn.StructField{Name: templateNames[i], Type: t})
	}
	return dyn.MustStructOf("R", fields...)
}

func randomValue(rng *rand.Rand, t *dyn.Type) dyn.Value {
	switch t.Kind() {
	case dyn.KindBoolean:
		return dyn.BoolValue(rng.IntN(2) == 0)
	case dyn.KindChar:
		return dyn.CharValue(templateChars[rng.IntN(len(templateChars))])
	case dyn.KindInt32:
		return dyn.Int32Value(rng.Int32() - 1<<30)
	case dyn.KindInt64:
		return dyn.Int64Value(rng.Int64() - 1<<62)
	case dyn.KindFloat32, dyn.KindFloat64:
		f := float64(rng.Int32()) / 1024
		if rng.IntN(3) == 0 {
			f = templateFloats[rng.IntN(len(templateFloats))]
		}
		if t.Kind() == dyn.KindFloat32 {
			return dyn.Float32Value(float32(f))
		}
		return dyn.Float64Value(f)
	case dyn.KindString:
		return dyn.StringValue(templateStrings[rng.IntN(len(templateStrings))])
	case dyn.KindSequence:
		elems := make([]dyn.Value, rng.IntN(4))
		for i := range elems {
			elems[i] = randomValue(rng, t.Elem())
		}
		return dyn.MustSequenceValue(t.Elem(), elems...)
	case dyn.KindStruct:
		fields := make([]dyn.Value, t.NumFields())
		for i := range fields {
			fields[i] = randomValue(rng, t.Field(i).Type)
		}
		return dyn.MustStructValue(t, fields...)
	}
	return dyn.VoidValue()
}

// TestStructTemplateMatchesItemByItem: a sequence of structs written with
// its member names rendered once is byte for byte, error for error, what
// the item-by-item writer writes: random sequences of random structs
// (names that need escaping, void, nested structs and sequences, floats
// JSON has no form for), an empty sequence, a one-item one and a
// zero-field struct.
func TestStructTemplateMatchesItemByItem(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	types := []*dyn.Type{dyn.SequenceOf(emptyType), dyn.SequenceOf(gapType), dyn.SequenceOf(nestType),
		dyn.SequenceOf(itemType), dyn.SequenceOf(dyn.SequenceOf(itemType))}
	for range 2000 {
		types = append(types, dyn.SequenceOf(randomStruct(rng, 0)))
	}
	check := func(v dyn.Value) {
		t.Helper()
		got, err := appendValue([]byte("["), v)
		want, werr := itemByItemValue([]byte("["), v)
		if string(got) != string(want) || fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("%s: the template writes\n%q, %v\nitem by item\n%q, %v", v.Type(), got, err, want, werr)
		}
	}
	for _, typ := range types {
		check(dyn.MustSequenceValue(typ.Elem()))
		check(dyn.MustSequenceValue(typ.Elem(), randomValue(rng, typ.Elem())))
		check(randomValue(rng, typ))
	}
	check(bulkValue(256))
}
