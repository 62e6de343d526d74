package soap

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"livedev/internal/dyn"
)

func TestXMLTreeRoundTrip(t *testing.T) {
	root := NewNode("a")
	root.Attrs["x"] = `quote " amp & lt <`
	b := root.Append(NewNode("b"))
	b.Text = "text with <angle> & amp"
	root.Append(NewNode("empty"))

	parsed, err := ParseXML([]byte(root.Render()))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Name != "a" || parsed.Attr("x") != `quote " amp & lt <` {
		t.Errorf("root = %+v", parsed)
	}
	pb, ok := parsed.Child("b")
	if !ok || pb.Text != "text with <angle> & amp" {
		t.Errorf("child b = %+v", pb)
	}
	if _, ok := parsed.Child("empty"); !ok {
		t.Error("child empty missing")
	}
	if _, ok := parsed.Child("nope"); ok {
		t.Error("unexpected child found")
	}
}

func TestParseXMLErrors(t *testing.T) {
	for _, bad := range []string{"", "<a>", "<a></b>", "text only", "<a/><b/>"} {
		if _, err := ParseXML([]byte(bad)); !errors.Is(err, ErrMalformedXML) {
			t.Errorf("ParseXML(%q) = %v, want ErrMalformedXML", bad, err)
		}
	}
}

// encodeElement renders <name> carrying v as the envelope encoder does.
func encodeElement(t testing.TB, name string, v dyn.Value) Element {
	t.Helper()
	buf, err := appendValue(nil, name, v)
	if err != nil {
		t.Fatalf("appendValue(%v): %v", v, err)
	}
	return buf
}

func TestEncodeDecodeScalars(t *testing.T) {
	msg := dyn.MustStructOf("Message",
		dyn.StructField{Name: "from", Type: dyn.StringT},
		dyn.StructField{Name: "id", Type: dyn.Int64T})
	vals := []dyn.Value{
		dyn.BoolValue(true),
		dyn.BoolValue(false),
		dyn.CharValue('Z'),
		dyn.CharValue(' '), // whitespace char must survive
		dyn.Int32Value(-5),
		dyn.Int64Value(1 << 60),
		dyn.Float32Value(1.25),
		dyn.Float64Value(-math.Pi),
		dyn.StringValue("hello & <world>"),
		dyn.StringValue(""),
		dyn.StringValue("  leading/trailing  "),
		dyn.MustSequenceValue(dyn.Int32T, dyn.Int32Value(1), dyn.Int32Value(2)),
		dyn.MustSequenceValue(dyn.Int32T),
		dyn.MustStructValue(msg, dyn.StringValue("alice"), dyn.Int64Value(7)),
	}
	for _, v := range vals {
		got, err := DecodeValue(encodeElement(t, "p", v), v.Type())
		if err != nil {
			t.Fatalf("DecodeValue(%v): %v", v, err)
		}
		if !got.Equal(v) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestSpecialFloats(t *testing.T) {
	for _, v := range []dyn.Value{
		dyn.Float64Value(math.Inf(1)),
		dyn.Float64Value(math.Inf(-1)),
		dyn.Float32Value(float32(math.Inf(1))),
	} {
		got, err := DecodeValue(encodeElement(t, "f", v), v.Type())
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(v) {
			t.Errorf("special float %v -> %v", v, got)
		}
	}
	// NaN: equality is identity-based here, check via IsNaN.
	n := encodeElement(t, "f", dyn.Float64Value(math.NaN()))
	if string(n) != `<f xsi:type="xsd:double">NaN</f>` {
		t.Errorf("NaN element = %s", n)
	}
	got, err := DecodeValue(n, dyn.Float64T)
	if err != nil || !math.IsNaN(got.Float64()) {
		t.Errorf("NaN decode = %v, %v", got, err)
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := func(text string, typ *dyn.Type) {
		t.Helper()
		if _, err := DecodeValue(Element("<p>"+text+"</p>"), typ); err == nil {
			t.Errorf("DecodeValue(%q as %v) should fail", text, typ)
		}
	}
	bad("maybe", dyn.Boolean)
	bad("", dyn.Char)
	bad("ab", dyn.Char)
	bad("12.5", dyn.Int32T)
	bad("99999999999999999999", dyn.Int64T)
	bad("abc", dyn.Float64T)
	bad("9e999", dyn.Float32T) // overflow

	// Struct missing a field.
	st := dyn.MustStructOf("S", dyn.StructField{Name: "a", Type: dyn.Int32T})
	if _, err := DecodeValue(Element("<p/>"), st); err == nil {
		t.Error("missing struct field should fail")
	}
	// Sequence with a bad element.
	if _, err := DecodeValue(Element("<p><item>notanint</item></p>"), dyn.SequenceOf(dyn.Int32T)); err == nil {
		t.Error("bad sequence element should fail")
	}
}

func TestEncodeWideCharOK(t *testing.T) {
	// Unlike CDR, the XML encoding handles any rune.
	v := dyn.CharValue('λ')
	got, err := DecodeValue(encodeElement(t, "c", v), dyn.Char)
	if err != nil || got.Char() != 'λ' {
		t.Errorf("wide char: %v, %v", got, err)
	}
}

func TestRequestRoundTrip(t *testing.T) {
	xmlText, err := BuildRequest("urn:Calc", "add", []NamedValue{
		{Name: "a", Value: dyn.Int32Value(2)},
		{Name: "b", Value: dyn.Int32Value(3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	req, err := ParseRequest([]byte(xmlText))
	if err != nil {
		t.Fatal(err)
	}
	if req.Method != "add" || len(req.Params) != 2 {
		t.Fatalf("request = %+v", req)
	}
	a, err := DecodeValue(req.Params[0], dyn.Int32T)
	if err != nil || a.Int32() != 2 {
		t.Errorf("param a = %v, %v", a, err)
	}
}

func TestParseRequestErrors(t *testing.T) {
	cases := []string{
		`<notenvelope/>`,
		`<Envelope xmlns="x"/>`,
		`<Envelope xmlns="x"><Body/></Envelope>`,
		`<Envelope xmlns="x"><Body><a/><b/></Body></Envelope>`,
		`garbage`,
	}
	for _, c := range cases {
		if _, err := ParseRequest([]byte(c)); err == nil {
			t.Errorf("ParseRequest(%q) should fail", c)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	xmlText, err := BuildResponse("urn:Calc", "add", dyn.Int32Value(5))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ParseResponse([]byte(xmlText))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Fault != nil || resp.Method != "add" || resp.Return == nil {
		t.Fatalf("response = %+v", resp)
	}
	v, err := DecodeValue(resp.Return, dyn.Int32T)
	if err != nil || v.Int32() != 5 {
		t.Errorf("return = %v, %v", v, err)
	}
}

func TestVoidResponse(t *testing.T) {
	xmlText, err := BuildResponse("urn:Calc", "reset", dyn.VoidValue())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ParseResponse([]byte(xmlText))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Return != nil || resp.Method != "reset" {
		t.Errorf("void response = %+v", resp)
	}
}

func TestFaultRoundTrip(t *testing.T) {
	f := &Fault{Code: "soap:Server", String: FaultNonExistentMethod, Detail: "method add is gone"}
	resp, err := ParseResponse([]byte(BuildFault(f)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Fault == nil {
		t.Fatal("fault not parsed")
	}
	if resp.Fault.Code != f.Code || resp.Fault.String != f.String || resp.Fault.Detail != f.Detail {
		t.Errorf("fault = %+v", resp.Fault)
	}
	if !IsNonExistentMethod(resp.Fault) {
		t.Error("IsNonExistentMethod should be true")
	}
	if IsNonExistentMethod(&Fault{String: FaultServerNotInitialized}) {
		t.Error("other faults should not match")
	}
	if IsNonExistentMethod(errors.New("x")) {
		t.Error("non-fault errors should not match")
	}
	if resp.Fault.Error() == "" {
		t.Error("Error() empty")
	}
}

func TestParseResponseErrors(t *testing.T) {
	cases := []string{
		`<Envelope xmlns="x"><Body><notareply/></Body></Envelope>`,
		`<Envelope xmlns="x"><Body/></Envelope>`,
		`<wrong/>`,
		`junk`,
	}
	for _, c := range cases {
		if _, err := ParseResponse([]byte(c)); err == nil {
			t.Errorf("ParseResponse(%q) should fail", c)
		}
	}
}

// randomSOAPValue builds a random value; chars beyond Latin-1 are fine for
// the XML encoding, but XML cannot carry most control characters, so
// strings and chars are drawn from printable runes.
func randomSOAPValue(r *rand.Rand, depth int) dyn.Value {
	k := r.Intn(9)
	if depth <= 0 && k >= 7 {
		k = r.Intn(7)
	}
	switch k {
	case 0:
		return dyn.BoolValue(r.Intn(2) == 0)
	case 1:
		return dyn.CharValue(rune(' ' + r.Intn(94)))
	case 2:
		return dyn.Int32Value(int32(r.Uint32()))
	case 3:
		return dyn.Int64Value(int64(r.Uint64()))
	case 4:
		return dyn.Float32Value(float32(r.NormFloat64()))
	case 5:
		return dyn.Float64Value(r.NormFloat64())
	case 6:
		n := r.Intn(16)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteRune(rune(' ' + r.Intn(94)))
		}
		return dyn.StringValue(sb.String())
	case 7:
		elem := randomSOAPValue(r, depth-1)
		n := r.Intn(3)
		vals := make([]dyn.Value, 0, n)
		for i := 0; i < n; i++ {
			vals = append(vals, xmlSafeZero(elem.Type()))
		}
		return dyn.MustSequenceValue(elem.Type(), vals...)
	default:
		nf := 1 + r.Intn(3)
		fields := make([]dyn.StructField, nf)
		vals := make([]dyn.Value, nf)
		for i := 0; i < nf; i++ {
			fv := randomSOAPValue(r, depth-1)
			fields[i] = dyn.StructField{Name: string(rune('a' + i)), Type: fv.Type()}
			vals[i] = fv
		}
		st := dyn.MustStructOf("R", fields...)
		return dyn.MustStructValue(st, vals...)
	}
}

// xmlSafeZero is like dyn.Zero but avoids the NUL char, which XML cannot
// carry.
func xmlSafeZero(t *dyn.Type) dyn.Value {
	switch t.Kind() {
	case dyn.KindChar:
		return dyn.CharValue('0')
	case dyn.KindSequence:
		return dyn.Zero(t)
	case dyn.KindStruct:
		fields := t.Fields()
		vals := make([]dyn.Value, len(fields))
		for i, f := range fields {
			vals[i] = xmlSafeZero(f.Type)
		}
		return dyn.MustStructValue(t, vals...)
	default:
		return dyn.Zero(t)
	}
}

// Property: encode → decode is identity.
func TestValueXMLRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vs []reflect.Value, r *rand.Rand) {
			vs[0] = reflect.ValueOf(randomSOAPValue(r, 2))
		},
	}
	f := func(v dyn.Value) bool {
		got, err := DecodeValue(encodeElement(t, "p", v), v.Type())
		return err == nil && got.Equal(v)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
