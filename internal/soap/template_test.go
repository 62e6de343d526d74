package soap

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
	"unicode/utf8"

	"livedev/internal/dyn"
)

// itemByItemValue is appendValue as it was before sequences were written
// from the item skeleton: every item through the whole element writer, and
// floats through strconv.
func itemByItemValue(buf []byte, name string, v dyn.Value) ([]byte, error) {
	t := v.Type()
	k := t.Kind()
	buf = appendStartTag(buf, name, t)
	if k == dyn.KindVoid {
		return buf, nil
	}
	content := len(buf)

	var err error
	switch k {
	case dyn.KindBoolean:
		buf = strconv.AppendBool(buf, v.Bool())
	case dyn.KindChar:
		var tmp [utf8.UTFMax]byte
		n := utf8.EncodeRune(tmp[:], v.Char())
		buf = AppendEscaped(buf, string(tmp[:n]))
	case dyn.KindInt32:
		buf = strconv.AppendInt(buf, int64(v.Int32()), 10)
	case dyn.KindInt64:
		buf = strconv.AppendInt(buf, v.Int64(), 10)
	case dyn.KindFloat32, dyn.KindFloat64:
		bits := 64
		if k == dyn.KindFloat32 {
			bits = 32
		}
		buf = append(buf, oracleFormatXSDFloat(v.Float64(), bits)...)
	case dyn.KindString:
		buf = AppendEscaped(buf, v.Str())
	case dyn.KindSequence:
		for i := 0; i < v.Len() && err == nil; i++ {
			buf, err = itemByItemValue(buf, "item", v.Index(i))
		}
	case dyn.KindStruct:
		for i := 0; i < v.Len() && err == nil; i++ {
			f := t.Field(i)
			if buf, err = itemByItemValue(buf, f.Name, v.Index(i)); err != nil {
				err = fmt.Errorf("struct %s field %s: %w", t.Name(), f.Name, err)
			}
		}
	default:
		err = fmt.Errorf("soap: cannot encode kind %s", k)
	}
	if err != nil {
		return buf, err
	}
	if len(buf) == content {
		buf[content-1] = '/'
		return append(buf, '>'), nil
	}
	return appendEndTag(buf, name), nil
}

// Members and values the template oracle draws from: plain names and ones
// the skeleton does not cover, strings and chars that are empty, escaped or
// not ASCII, and floats on both sides of the exact formatter's bound and in
// the 'g' format's exponent forms.
var (
	templateNames   = []string{"id", "tag", "score", "x_1", "a-b", "c.d", "m:a", "a ", "é"}
	templateKinds   = []*dyn.Type{dyn.Boolean, dyn.Char, dyn.Int32T, dyn.Int64T, dyn.Float32T, dyn.Float64T, dyn.StringT}
	templateStrings = []string{"", "tag-000000000042", "&<>", "\"'", "héllo ☃", "\x01\xff", "]]>"}
	templateChars   = []rune{'a', '&', '<', 'é', '☃', 0}
	templateFloats  = []float64{0, math.Copysign(0, -1), 42, -3.75, 2097151.9990234375, 0.1, 1e6, 1048576.5,
		1e-5, 0x1p-17, 0x1p-21, 1e21, math.Inf(1), math.Inf(-1), math.NaN()}
)

// randomStruct is a struct of up to four scalar members, now and then with
// a name the item skeleton does not cover.
func randomStruct(rng *rand.Rand) *dyn.Type {
	var fields []dyn.StructField
	for _, i := range rng.Perm(len(templateNames))[:rng.IntN(5)] {
		if i < 6 || rng.IntN(4) == 0 {
			fields = append(fields, dyn.StructField{Name: templateNames[i], Type: templateKinds[rng.IntN(len(templateKinds))]})
		}
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
		if rng.IntN(2) == 0 {
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

// TestItemTemplateMatchesItemByItem: a sequence written from the item
// skeleton is byte for byte, error for error, what the item-by-item writer
// writes: random sequences of structs and of scalars, and an empty
// sequence, a one-item one, a zero-field struct, members the skeleton does
// not cover, a void member and nested sequences.
func TestItemTemplateMatchesItemByItem(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	var types []*dyn.Type
	for range 2000 {
		types = append(types, dyn.SequenceOf(randomStruct(rng)))
	}
	for _, k := range templateKinds {
		types = append(types, dyn.SequenceOf(k))
	}
	types = append(types, dyn.SequenceOf(dyn.MustStructOf("Empty")), dyn.SequenceOf(prefixedMember),
		dyn.SequenceOf(wideSpaceMember), dyn.SequenceOf(voidField), dyn.SequenceOf(nestType),
		dyn.SequenceOf(dyn.SequenceOf(pairType)))
	check := func(v dyn.Value) {
		t.Helper()
		got, err := appendValue([]byte("<x>"), "v", v)
		want, werr := itemByItemValue([]byte("<x>"), "v", v)
		if string(got) != string(want) || fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("%s: the template writes\n%q, %v\nitem by item\n%q, %v", v.Type(), got, err, want, werr)
		}
	}
	for _, typ := range types {
		check(dyn.MustSequenceValue(typ.Elem()))
		check(dyn.MustSequenceValue(typ.Elem(), randomValue(rng, typ.Elem())))
		check(randomValue(rng, typ))
	}
}
