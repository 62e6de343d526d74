package dyn

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !BoolValue(true).Bool() {
		t.Error("BoolValue(true).Bool() = false")
	}
	if CharValue('λ').Char() != 'λ' {
		t.Error("CharValue round trip failed")
	}
	if Int32Value(-7).Int32() != -7 {
		t.Error("Int32Value round trip failed")
	}
	if Int64Value(1<<40).Int64() != 1<<40 {
		t.Error("Int64Value round trip failed")
	}
	if Float32Value(1.5).Float32() != 1.5 {
		t.Error("Float32Value round trip failed")
	}
	if Float64Value(2.25).Float64() != 2.25 {
		t.Error("Float64Value round trip failed")
	}
	if StringValue("hi").Str() != "hi" {
		t.Error("StringValue round trip failed")
	}
	if !VoidValue().IsVoid() {
		t.Error("VoidValue().IsVoid() = false")
	}
	var zero Value
	if !zero.IsVoid() || zero.Type().Kind() != KindVoid {
		t.Error("zero Value should be void")
	}
}

func TestSequenceValueTypeChecking(t *testing.T) {
	if _, err := SequenceValue(nil); err == nil {
		t.Error("nil element type should fail")
	}
	if _, err := SequenceValue(Int32T, StringValue("x")); err == nil {
		t.Error("mismatched element should fail")
	}
	v, err := SequenceValue(Int32T, Int32Value(1), Int32Value(2))
	if err != nil {
		t.Fatalf("SequenceValue: %v", err)
	}
	if v.Len() != 2 || v.Index(1).Int32() != 2 {
		t.Errorf("sequence contents wrong: %v", v)
	}
	if v.Type().Kind() != KindSequence || !v.Type().Elem().Equal(Int32T) {
		t.Errorf("sequence type wrong: %v", v.Type())
	}
}

func TestStructValueTypeChecking(t *testing.T) {
	pt := MustStructOf("Point", StructField{Name: "x", Type: Float64T}, StructField{Name: "y", Type: Float64T})
	if _, err := StructValue(Int32T); err == nil {
		t.Error("non-struct type should fail")
	}
	if _, err := StructValue(pt, Float64Value(1)); err == nil {
		t.Error("wrong arity should fail")
	}
	if _, err := StructValue(pt, Float64Value(1), Int32Value(2)); err == nil {
		t.Error("wrong field type should fail")
	}
	v, err := StructValue(pt, Float64Value(3), Float64Value(4))
	if err != nil {
		t.Fatalf("StructValue: %v", err)
	}
	y, ok := v.Field("y")
	if !ok || y.Float64() != 4 {
		t.Errorf("Field(y) = %v, %v", y, ok)
	}
	if _, ok := v.Field("z"); ok {
		t.Error("Field(z) should be absent")
	}
	if _, ok := Int32Value(1).Field("x"); ok {
		t.Error("Field on non-struct should be absent")
	}
}

// TestAdoptingConstructorsMatchCopyingOnes runs every constructor case of
// the two tests above through both forms: the same verdict, the same error
// text, an equal value — the only difference is who owns the slice.
func TestAdoptingConstructorsMatchCopyingOnes(t *testing.T) {
	pt := MustStructOf("Point", StructField{Name: "x", Type: Float64T}, StructField{Name: "y", Type: Float64T})
	other := MustStructOf("Point", StructField{Name: "x", Type: Float64T}, StructField{Name: "z", Type: Float64T})
	same := func(name string, copied Value, cerr error, adopted Value, aerr error) {
		t.Helper()
		switch {
		case (cerr == nil) != (aerr == nil):
			t.Errorf("%s: copying constructor says %v, adopting one says %v", name, cerr, aerr)
		case cerr != nil && cerr.Error() != aerr.Error():
			t.Errorf("%s: errors differ: %q vs %q", name, cerr, aerr)
		case cerr == nil && !copied.Equal(adopted):
			t.Errorf("%s: values differ: %v vs %v", name, copied, adopted)
		}
	}
	for _, tc := range []struct {
		name  string
		elem  *Type
		elems []Value
	}{
		{"nil element type", nil, nil},
		{"nil element type with elements", nil, []Value{Int32Value(1)}},
		{"mismatched element", Int32T, []Value{StringValue("x")}},
		{"mismatch after a match", Int32T, []Value{Int32Value(1), Int64Value(2)}},
		{"void element", Int32T, []Value{{}}},
		{"struct of another layout", pt, []Value{Zero(other)}},
		{"empty", Int32T, nil},
		{"ints", Int32T, []Value{Int32Value(1), Int32Value(2)}},
		{"structs", pt, []Value{Zero(pt), MustStructValue(pt, Float64Value(3), Float64Value(4))}},
	} {
		copied, cerr := SequenceValue(tc.elem, tc.elems...)
		adopted, aerr := AdoptSequence(tc.elem, append([]Value(nil), tc.elems...))
		same("sequence: "+tc.name, copied, cerr, adopted, aerr)
	}
	for _, tc := range []struct {
		name string
		typ  *Type
		vals []Value
	}{
		{"nil type", nil, nil},
		{"non-struct type", Int32T, nil},
		{"sequence type", SequenceOf(pt), []Value{Float64Value(1), Float64Value(2)}},
		{"too few values", pt, []Value{Float64Value(1)}},
		{"too many values", pt, []Value{Float64Value(1), Float64Value(2), Float64Value(3)}},
		{"no values", pt, nil},
		{"wrong field type", pt, []Value{Float64Value(1), Int32Value(2)}},
		{"wrong first field type", pt, []Value{StringValue("1"), Float64Value(2)}},
		{"void field value", pt, []Value{Float64Value(1), {}}},
		{"point", pt, []Value{Float64Value(3), Float64Value(4)}},
		{"zero-field struct", MustStructOf("Empty"), nil},
	} {
		copied, cerr := StructValue(tc.typ, tc.vals...)
		adopted, aerr := AdoptStruct(tc.typ, append([]Value(nil), tc.vals...))
		same("struct: "+tc.name, copied, cerr, adopted, aerr)
	}

	// Ownership is the difference: the copying form is insulated from the
	// caller's slice, the adopting form is that slice.
	elems := []Value{Int32Value(1), Int32Value(2)}
	copied := MustSequenceValue(Int32T, elems...)
	adopted, err := AdoptSequence(Int32T, elems)
	if err != nil {
		t.Fatal(err)
	}
	elems[0] = Int32Value(9)
	if copied.Index(0).Int32() != 1 {
		t.Error("SequenceValue must copy its elements in")
	}
	if adopted.Index(0).Int32() != 9 {
		t.Error("AdoptSequence must take the slice itself, not a copy")
	}
	fields := []Value{Float64Value(1), Float64Value(2)}
	sc := MustStructValue(pt, fields...)
	sa, err := AdoptStruct(pt, fields)
	if err != nil {
		t.Fatal(err)
	}
	fields[1] = Float64Value(7)
	if y, _ := sc.Field("y"); y.Float64() != 2 {
		t.Error("StructValue must copy its field values in")
	}
	if y, _ := sa.Field("y"); y.Float64() != 7 {
		t.Error("AdoptStruct must take the slice itself, not a copy")
	}
}

func TestValueEqual(t *testing.T) {
	pt := MustStructOf("Point", StructField{Name: "x", Type: Float64T})
	cases := []struct {
		a, b Value
		want bool
	}{
		{BoolValue(true), BoolValue(true), true},
		{BoolValue(true), BoolValue(false), false},
		{Int32Value(1), Int64Value(1), false}, // different types
		{Int64Value(5), Int64Value(5), true},
		{StringValue("a"), StringValue("a"), true},
		{StringValue("a"), StringValue("b"), false},
		{CharValue('a'), CharValue('a'), true},
		{Float64Value(1), Float64Value(2), false},
		{VoidValue(), VoidValue(), true},
		{MustSequenceValue(Int32T, Int32Value(1)), MustSequenceValue(Int32T, Int32Value(1)), true},
		{MustSequenceValue(Int32T, Int32Value(1)), MustSequenceValue(Int32T), false},
		{MustStructValue(pt, Float64Value(1)), MustStructValue(pt, Float64Value(1)), true},
		{MustStructValue(pt, Float64Value(1)), MustStructValue(pt, Float64Value(2)), false},
	}
	for i, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("case %d: %v.Equal(%v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

func TestZero(t *testing.T) {
	pt := MustStructOf("Point", StructField{Name: "x", Type: Float64T}, StructField{Name: "tag", Type: StringT})
	z := Zero(pt)
	if x, _ := z.Field("x"); x.Float64() != 0 {
		t.Error("zero struct field x should be 0")
	}
	if s, _ := z.Field("tag"); s.Str() != "" {
		t.Error("zero struct field tag should be empty")
	}
	if Zero(SequenceOf(Int32T)).Len() != 0 {
		t.Error("zero sequence should be empty")
	}
	if !Zero(nil).IsVoid() || !Zero(Void).IsVoid() {
		t.Error("Zero(nil)/Zero(Void) should be void")
	}
	for _, k := range []Kind{KindBoolean, KindChar, KindInt32, KindInt64, KindFloat32, KindFloat64, KindString} {
		z := Zero(Primitive(k))
		if !z.Equal(Zero(Primitive(k))) {
			t.Errorf("Zero(%v) not self-equal", k)
		}
	}
}

func TestValueString(t *testing.T) {
	pt := MustStructOf("Point", StructField{Name: "x", Type: Float64T})
	cases := map[string]Value{
		"void":         VoidValue(),
		"true":         BoolValue(true),
		"42":           Int32Value(42),
		`"hi"`:         StringValue("hi"),
		"'x'":          CharValue('x'),
		"[1,2]":        MustSequenceValue(Int32T, Int32Value(1), Int32Value(2)),
		"Point{x:1.5}": MustStructValue(pt, Float64Value(1.5)),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

// randomValue builds a random value of a random type, for property tests.
func randomValue(r *rand.Rand, depth int) Value {
	k := r.Intn(9)
	if depth <= 0 && k >= 7 {
		k = r.Intn(7)
	}
	switch k {
	case 0:
		return BoolValue(r.Intn(2) == 0)
	case 1:
		return CharValue(rune('a' + r.Intn(26)))
	case 2:
		return Int32Value(int32(r.Uint32()))
	case 3:
		return Int64Value(int64(r.Uint64()))
	case 4:
		return Float32Value(float32(r.NormFloat64()))
	case 5:
		return Float64Value(r.NormFloat64())
	case 6:
		n := r.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return StringValue(string(b))
	case 7:
		elem := randomValue(r, 0) // primitive element
		vals := make([]Value, r.Intn(4))
		for i := range vals {
			vals[i] = randomPrimitiveOfType(r, elem.Type())
		}
		return MustSequenceValue(elem.Type(), vals...)
	default:
		nf := 1 + r.Intn(3)
		fields := make([]StructField, nf)
		vals := make([]Value, nf)
		for i := 0; i < nf; i++ {
			fv := randomValue(r, depth-1)
			fields[i] = StructField{Name: string(rune('a' + i)), Type: fv.Type()}
			vals[i] = fv
		}
		st := MustStructOf("R", fields...)
		return MustStructValue(st, vals...)
	}
}

func randomPrimitiveOfType(r *rand.Rand, t *Type) Value {
	switch t.Kind() {
	case KindBoolean:
		return BoolValue(r.Intn(2) == 0)
	case KindChar:
		return CharValue(rune('a' + r.Intn(26)))
	case KindInt32:
		return Int32Value(int32(r.Uint32()))
	case KindInt64:
		return Int64Value(int64(r.Uint64()))
	case KindFloat32:
		return Float32Value(float32(r.NormFloat64()))
	case KindFloat64:
		return Float64Value(r.NormFloat64())
	case KindString:
		return StringValue("s")
	default:
		return VoidValue()
	}
}

// Property: every random value equals itself, and Zero of its type is valid
// and equals Zero of the same type computed independently.
func TestValueSelfEqualProperty(t *testing.T) {
	cfg := &quick.Config{
		Values: func(vs []reflect.Value, r *rand.Rand) {
			vs[0] = reflect.ValueOf(randomValue(r, 2))
		},
	}
	f := func(v Value) bool {
		return v.Equal(v) && Zero(v.Type()).Equal(Zero(v.Type()))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestElemsReturnsCopy(t *testing.T) {
	v := MustSequenceValue(Int32T, Int32Value(1), Int32Value(2))
	es := v.Elems()
	es[0] = Int32Value(99)
	if v.Index(0).Int32() != 1 {
		t.Error("Elems() must return a defensive copy")
	}
}
