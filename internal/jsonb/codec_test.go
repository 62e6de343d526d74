package jsonb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"livedev/internal/dyn"
)

// Types the codec tests and fuzz targets decode against: every kind, both
// composites nested in each other, a struct whose declaration order is not
// its sorted order, one with no fields and one with a void field.
var (
	pointType = dyn.MustStructOf("P",
		dyn.StructField{Name: "x", Type: dyn.Float64T},
		dyn.StructField{Name: "n", Type: dyn.Int64T})
	itemType = dyn.MustStructOf("Item",
		dyn.StructField{Name: "id", Type: dyn.Int32T},
		dyn.StructField{Name: "tag", Type: dyn.StringT},
		dyn.StructField{Name: "score", Type: dyn.Float64T})
	nestType = dyn.MustStructOf("Nest",
		dyn.StructField{Name: "p", Type: pointType},
		dyn.StructField{Name: "tags", Type: dyn.SequenceOf(dyn.StringT)},
		dyn.StructField{Name: "c", Type: dyn.Char},
		dyn.StructField{Name: "ok", Type: dyn.Boolean},
		dyn.StructField{Name: "f", Type: dyn.Float32T})
	emptyType = dyn.MustStructOf("Empty")
	gapType   = dyn.MustStructOf("Gap",
		dyn.StructField{Name: "a", Type: dyn.Int32T},
		dyn.StructField{Name: "v", Type: dyn.Void})

	codecTypes = []*dyn.Type{
		dyn.Void, dyn.Boolean, dyn.Char, dyn.Int32T, dyn.Int64T, dyn.Float32T, dyn.Float64T, dyn.StringT,
		dyn.SequenceOf(dyn.Int32T), dyn.SequenceOf(dyn.Float64T), dyn.SequenceOf(dyn.SequenceOf(dyn.StringT)),
		pointType, itemType, nestType, emptyType, gapType,
		dyn.SequenceOf(itemType), dyn.SequenceOf(nestType),
	}
)

func elemOrSelf(t *dyn.Type) *dyn.Type {
	if t.Kind() == dyn.KindSequence {
		return t.Elem()
	}
	return t
}

// bulkValue is the benchmark's calls_bulk payload shape: n Item structs,
// each score, as the benchmark's, a random int32 divided by 1024 (an exact
// binary fraction of up to 17 significant digits).
func bulkValue(n int) dyn.Value {
	rng := rand.New(rand.NewPCG(1, 2))
	elems := make([]dyn.Value, n)
	for i := range elems {
		elems[i] = dyn.MustStructValue(itemType,
			dyn.Int32Value(int32(i*7919-100000)),
			dyn.StringValue(fmt.Sprintf("tag-%012d", i)),
			dyn.Float64Value(float64(rng.Int32())/1024))
	}
	return dyn.MustSequenceValue(itemType, elems...)
}

// checkDecode runs the scanner and the oracle over raw and demands the same
// verdict and the same value; on accept it also demands that the scanner's
// re-encoding is a fixed point under both decoders. It returns the verdict.
func checkDecode(t testing.TB, raw []byte, typ *dyn.Type) (dyn.Value, bool) {
	t.Helper()
	got, err := DecodeValue(raw, typ)
	want, werr := oracleDecodeValue(raw, typ)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%s: decoding %q: scanner says %v, oracle says %v", typ, raw, err, werr)
	}
	if err != nil {
		return dyn.Value{}, false
	}
	if !got.Equal(want) {
		t.Fatalf("%s: decoding %q: scanner %v, oracle %v", typ, raw, got, want)
	}
	enc, err := EncodeValue(got)
	if err != nil {
		t.Fatalf("%s: re-encoding %v: %v", typ, got, err)
	}
	if again, err := DecodeValue(enc, typ); err != nil || !again.Equal(got) {
		t.Fatalf("%s: %q -> %v -> %s -> %v, %v: not a fixed point", typ, raw, got, enc, again, err)
	}
	if again, err := oracleDecodeValue(enc, typ); err != nil || !again.Equal(got) {
		t.Fatalf("%s: oracle reads the scanner's re-encoding %s as %v, %v; want %v", typ, enc, again, err, got)
	}
	return got, true
}

// roundTripValues covers every kind and the awkward corners of each.
func roundTripValues() []dyn.Value {
	point := func(x float64, n int64) dyn.Value {
		return dyn.MustStructValue(pointType, dyn.Float64Value(x), dyn.Int64Value(n))
	}
	vals := []dyn.Value{
		dyn.VoidValue(),
		dyn.BoolValue(true), dyn.BoolValue(false),
		dyn.CharValue('a'), dyn.CharValue('λ'), dyn.CharValue('"'), dyn.CharValue('\\'), dyn.CharValue(0),
		dyn.CharValue('\u2028'), dyn.CharValue('😀'), dyn.CharValue('<'),
		dyn.Int32Value(0), dyn.Int32Value(-7), dyn.Int32Value(math.MaxInt32), dyn.Int32Value(math.MinInt32),
		dyn.Int64Value(0), dyn.Int64Value(1 << 60), dyn.Int64Value(math.MaxInt64), dyn.Int64Value(math.MinInt64),
		dyn.Float32Value(0), dyn.Float32Value(1.5), dyn.Float32Value(-3.25e-9), dyn.Float32Value(6.5e30),
		dyn.Float32Value(math.MaxFloat32), dyn.Float32Value(math.SmallestNonzeroFloat32), dyn.Float32Value(0.1),
		dyn.Float64Value(0), dyn.Float64Value(-2.25), dyn.Float64Value(1e-7), dyn.Float64Value(1e-6), dyn.Float64Value(1e21),
		dyn.Float64Value(9.99e20), dyn.Float64Value(math.MaxFloat64), dyn.Float64Value(math.SmallestNonzeroFloat64),
		dyn.Float64Value(math.Copysign(0, -1)), dyn.Float64Value(1.0 / 3),
		dyn.StringValue(""), dyn.StringValue("plain"), dyn.StringValue("héllo \"json\" \\ back"),
		dyn.StringValue("ctl \x00\x01\b\f\n\r\t\x1f\x7f"), dyn.StringValue("<script>&amp;</script>"),
		dyn.StringValue("sep\u2028para\u2029end"), dyn.StringValue("emoji 😀 and 日本語"),
		dyn.StringValue("\ufffd already replaced"),
		dyn.MustSequenceValue(dyn.Int32T), dyn.MustSequenceValue(dyn.Int32T, dyn.Int32Value(1), dyn.Int32Value(2)),
		dyn.MustSequenceValue(dyn.SequenceOf(dyn.StringT)),
		dyn.MustSequenceValue(dyn.SequenceOf(dyn.StringT),
			dyn.MustSequenceValue(dyn.StringT),
			dyn.MustSequenceValue(dyn.StringT, dyn.StringValue("a"), dyn.StringValue(""))),
		point(3.5, 9),
		dyn.MustStructValue(emptyType),
		dyn.MustStructValue(gapType, dyn.Int32Value(4), dyn.VoidValue()),
		dyn.MustStructValue(nestType, point(-1, -1),
			dyn.MustSequenceValue(dyn.StringT, dyn.StringValue("t1"), dyn.StringValue("t\"2")),
			dyn.CharValue('ß'), dyn.BoolValue(true), dyn.Float32Value(2.5)),
		dyn.MustSequenceValue(nestType),
		bulkValue(3),
	}
	return vals
}

func TestRoundTripEveryKind(t *testing.T) {
	for _, v := range roundTripValues() {
		raw, err := EncodeValue(v)
		if err != nil {
			t.Fatalf("encode %v: %v", v, err)
		}
		if !json.Valid(raw) {
			t.Fatalf("encode %v: %s is not valid JSON", v, raw)
		}
		got, ok := checkDecode(t, raw, v.Type())
		if !ok {
			t.Fatalf("%s: both decoders reject the encoder's own %s", v.Type(), raw)
		}
		if !got.Equal(v) {
			t.Errorf("%s: round trip %v -> %s -> %v", v.Type(), v, raw, got)
		}
	}
}

// TestEncoderMatchesParentBytes pins the byte-level compatibility the
// benchmark's wire-size row relies on: primitives, strings and sequences
// come out exactly as the parent's encoding/json codec wrote them, and a
// struct differs only in member order (declaration instead of sorted).
func TestEncoderMatchesParentBytes(t *testing.T) {
	for _, v := range roundTripValues() {
		got, err := EncodeValue(v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleEncodeValue(v)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d bytes %s, parent wrote %d bytes %s", v.Type(), len(got), got, len(want), want)
		}
		// x,n / id,tag,score / p,tags,c,ok,f are not in sorted order.
		if base := elemOrSelf(v.Type()); base == pointType || base == itemType || base == nestType {
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: wrote %s, parent wrote %s", v.Type(), got, want)
		}
	}
	if got, _ := EncodeValue(dyn.MustStructValue(pointType, dyn.Float64Value(1), dyn.Int64Value(2))); string(got) != `{"x":1,"n":"2"}` {
		t.Errorf("struct members out of declaration order: %s", got)
	}
}

func TestEncodeRejectsNonFiniteFloats(t *testing.T) {
	for _, v := range []dyn.Value{
		dyn.Float64Value(math.NaN()), dyn.Float64Value(math.Inf(1)), dyn.Float64Value(math.Inf(-1)),
		dyn.Float32Value(float32(math.NaN())), dyn.Float32Value(float32(math.Inf(1))),
		dyn.MustSequenceValue(dyn.Float64T, dyn.Float64Value(1), dyn.Float64Value(math.NaN())),
	} {
		if raw, err := EncodeValue(v); err == nil {
			t.Errorf("encoding %v gave %s, want an error", v, raw)
		}
		if _, err := oracleEncodeValue(v); err == nil {
			t.Errorf("oracle encoded %v", v)
		}
	}
}

// decodeCases are inputs no encoder of ours writes but a peer may: each is
// checked against the oracle, and accept says which verdict both must reach.
var decodeCases = []struct {
	name   string
	typ    *dyn.Type
	raw    string
	accept bool
}{
	{"whitespace around", dyn.Int32T, " \t\r\n-12 \n", true},
	{"int32 minus zero", dyn.Int32T, "-0", true},
	{"int32 fraction", dyn.Int32T, "1.0", false},
	{"int32 exponent", dyn.Int32T, "1e2", false},
	{"int32 overflow", dyn.Int32T, "2147483648", false},
	{"int32 leading zero", dyn.Int32T, "01", false},
	{"int32 plus", dyn.Int32T, "+1", false},
	{"int32 as string", dyn.Int32T, `"1"`, false},
	{"int32 huge literal", dyn.Int32T, strings.Repeat("9", 60), false},
	{"int64 max", dyn.Int64T, `"9223372036854775807"`, true},
	{"int64 min", dyn.Int64T, `"-9223372036854775808"`, true},
	{"int64 overflow", dyn.Int64T, `"9223372036854775808"`, false},
	{"int64 plus and zeros", dyn.Int64T, `"+007"`, true},
	{"int64 escaped digits", dyn.Int64T, `"\u0031\u0032"`, true},
	{"int64 bare number", dyn.Int64T, `12`, false},
	{"int64 empty", dyn.Int64T, `""`, false},
	{"int64 underscore", dyn.Int64T, `"1_000"`, false},
	{"float64 exponent forms", dyn.SequenceOf(dyn.Float64T), `[1e3, 1E3, 1e+3, 1.5e-3, -0.0, 0e0, 123456789012345678901234567890]`, true},
	{"float64 overflow", dyn.Float64T, "1e400", false},
	{"float64 underflow", dyn.Float64T, "1e-400", true},
	{"float32 overflow", dyn.Float32T, "1e39", false},
	{"float32 rounds", dyn.Float32T, "0.1000000000000000055511151231257827", true},
	{"float bad exponent", dyn.Float64T, "1e", false},
	{"float bare dot", dyn.Float64T, "1.", false},
	{"float leading dot", dyn.Float64T, ".5", false},
	{"float lone minus", dyn.Float64T, "-", false},
	{"float NaN", dyn.Float64T, "NaN", false},
	{"float as string", dyn.Float64T, `"1.5"`, false},
	{"bool true", dyn.Boolean, "true", true},
	{"bool truncated", dyn.Boolean, "tru", false},
	{"bool number", dyn.Boolean, "1", false},
	{"bool trailing", dyn.Boolean, "truex", false},
	{"char escape", dyn.Char, `"\u00e9"`, true},
	{"char surrogate pair", dyn.Char, `"\ud83d\ude00"`, true},
	{"char lone surrogate", dyn.Char, `"\ud83d"`, true},
	{"char two lone surrogates", dyn.Char, `"\ude00\ud83d"`, false},
	{"char invalid utf8", dyn.Char, "\"\xff\"", true},
	{"char two runes", dyn.Char, `"ab"`, false},
	{"char empty", dyn.Char, `""`, false},
	{"string escapes", dyn.StringT, `"\"\\\/\b\f\n\r\tA"`, true},
	{"string upper hex", dyn.StringT, `"\u00E9\u00e9"`, true},
	{"string surrogate then text", dyn.StringT, `"\ud83dx\ude00"`, true},
	{"string surrogate then escape", dyn.StringT, `"\ud83d\n"`, true},
	{"string surrogate then bad pair", dyn.StringT, `"\ud83dA"`, true},
	{"string surrogate at end", dyn.StringT, `"\ud83d\u"`, false},
	{"string invalid utf8", dyn.StringT, "\"a\xc3(b\xe2\x82\"", true},
	{"string raw control", dyn.StringT, "\"a\nb\"", false},
	{"string bad escape", dyn.StringT, `"\x41"`, false},
	{"string single-quote escape", dyn.StringT, `"\'"`, false},
	{"string short unicode", dyn.StringT, `"\u12"`, false},
	{"string bad hex", dyn.StringT, `"\u12g4"`, false},
	{"string unterminated", dyn.StringT, `"abc`, false},
	{"string dangling backslash", dyn.StringT, `"abc\`, false},
	{"string raw U+2028", dyn.StringT, "\"a\u2028b\"", true},
	{"sequence empty with space", dyn.SequenceOf(dyn.Int32T), "[ ]", true},
	{"sequence trailing comma", dyn.SequenceOf(dyn.Int32T), "[1,]", false},
	{"sequence leading comma", dyn.SequenceOf(dyn.Int32T), "[,1]", false},
	{"sequence unclosed", dyn.SequenceOf(dyn.Int32T), "[1,2", false},
	{"sequence wrong closer", dyn.SequenceOf(dyn.Int32T), "[1}", false},
	{"sequence object", dyn.SequenceOf(dyn.Int32T), "{}", false},
	{"sequence bad element", dyn.SequenceOf(dyn.Int32T), `[1,"2"]`, false},
	{"nested sequences", dyn.SequenceOf(dyn.SequenceOf(dyn.StringT)), `[[],["a"],[ "b" , "c" ]]`, true},
	{"struct reordered", pointType, `{"n":"2","x":1}`, true},
	{"struct unknown members", pointType, `{"zz":[1,{"q":null}],"x":1,"n":"2","more":"\ud83d"}`, true},
	{"struct unknown member malformed", pointType, `{"zz":[1,],"x":1,"n":"2"}`, false},
	{"struct duplicate last wins", pointType, `{"x":1,"n":"2","x":5}`, true},
	{"struct duplicate bad then good", pointType, `{"x":"bad","n":"2","x":5}`, true},
	{"struct duplicate good then bad", pointType, `{"x":5,"n":"2","x":"bad"}`, false},
	{"struct duplicate bad syntax", pointType, `{"x":[1,],"n":"2","x":5}`, false},
	{"struct missing field", pointType, `{"x":1}`, false},
	{"struct escaped member name", pointType, `{"\u0078":1,"n":"2"}`, true},
	{"struct case matters", pointType, `{"X":1,"n":"2"}`, false},
	{"struct trailing comma", pointType, `{"x":1,"n":"2",}`, false},
	{"struct missing colon", pointType, `{"x" 1,"n":"2"}`, false},
	{"struct bare name", pointType, `{x:1,"n":"2"}`, false},
	{"struct array", pointType, `[1,"2"]`, false},
	{"struct nested reordered", nestType, `{"f":1e0,"ok":false,"c":"ß","tags":[],"p":{"n":"0","x":0},"extra":{}}`, true},
	{"struct nested misfit", nestType, `{"f":1,"ok":false,"c":"ab","tags":[],"p":{"n":"0","x":0}}`, false},
	{"empty struct", emptyType, `{}`, true},
	{"empty struct ignores members", emptyType, `{"a":1}`, true},
	{"void field any value", gapType, `{"a":1,"v":{"deep":[1,2]}}`, true},
	{"void field missing", gapType, `{"a":1}`, false},
	{"void null", dyn.Void, `null`, true},
	{"void anything", dyn.Void, `[1,{"a":"b"}]`, true},
	{"void malformed", dyn.Void, `[1,`, false},
	{"void empty", dyn.Void, ``, false},
	{"empty input", dyn.Int32T, ``, false},
	{"only whitespace", dyn.StringT, `  `, false},
	{"two values", dyn.Int32T, `1 2`, false},
	{"trailing brace", pointType, `{"x":1,"n":"2"}}`, false},
	{"NUL byte", dyn.Int32T, "\x00", false},
	{"vertical tab is not whitespace", dyn.Int32T, "\v1", false},
}

func TestDecodeAgainstOracle(t *testing.T) {
	for _, tc := range decodeCases {
		t.Run(tc.name, func(t *testing.T) {
			if _, ok := checkDecode(t, []byte(tc.raw), tc.typ); ok != tc.accept {
				t.Errorf("%s: %q accepted=%v, want %v", tc.typ, tc.raw, ok, tc.accept)
			}
		})
	}
}

func TestDecodedContents(t *testing.T) {
	v, err := DecodeValue([]byte(`{"x":"bad","n":"2","x":5,"n":"-3"}`), pointType)
	if err != nil {
		t.Fatal(err)
	}
	if want := dyn.MustStructValue(pointType, dyn.Float64Value(5), dyn.Int64Value(-3)); !v.Equal(want) {
		t.Errorf("duplicates: got %v, want %v (last wins)", v, want)
	}
	s, err := DecodeValue([]byte(`"a\uD83D\uDE00b\ud83dc\udc00d`+"\xff"+`e\u2028"`), dyn.StringT)
	if err != nil {
		t.Fatal(err)
	}
	if want := "a\U0001F600b\ufffdc\ufffdd\ufffde\u2028"; s.Str() != want {
		t.Errorf("string = %q, want %q", s.Str(), want)
	}
	_, err = DecodeValue([]byte(`{"x":1}`), pointType)
	if err == nil || !strings.Contains(err.Error(), "missing field n") {
		t.Errorf("missing field error = %v", err)
	}
}

// TestNullOnlyForVoid is the satellite bugfix: encoding/json treats null as
// "leave the target alone", so the parent decoded it as zero for every kind.
func TestNullOnlyForVoid(t *testing.T) {
	for _, typ := range codecTypes {
		_, ok := checkDecode(t, []byte("null"), typ)
		if want := typ.Kind() == dyn.KindVoid; ok != want {
			t.Errorf("null as %s: accepted=%v, want %v", typ, ok, want)
		}
	}
	for _, tc := range []struct {
		typ *dyn.Type
		raw string
	}{
		{dyn.SequenceOf(dyn.Int32T), `[1,null]`},
		{pointType, `{"x":null,"n":"1"}`},
		{pointType, `{"x":1,"n":null}`},
		{nestType, `{"p":null,"tags":[],"c":"c","ok":true,"f":1}`},
		{nestType, `{"p":{"x":1,"n":"1"},"tags":null,"c":"c","ok":true,"f":1}`},
	} {
		if _, ok := checkDecode(t, []byte(tc.raw), tc.typ); ok {
			t.Errorf("%s: nested null in %s accepted", tc.typ, tc.raw)
		}
	}
}

func TestDepthLimit(t *testing.T) {
	nest := func(n int) []byte {
		return []byte(strings.Repeat("[", n) + strings.Repeat("]", n))
	}
	// The limit is encoding/json's: 10 000 levels pass, one more does not —
	// whether the nesting is skipped (void, unknown member) or typed.
	if _, ok := checkDecode(t, nest(maxDepth), dyn.Void); !ok {
		t.Errorf("%d levels rejected", maxDepth)
	}
	if _, ok := checkDecode(t, nest(maxDepth+1), dyn.Void); ok {
		t.Errorf("%d levels accepted", maxDepth+1)
	}
	member := append(append([]byte(`{"a":1,"v":`), nest(maxDepth-1)...), '}')
	if _, ok := checkDecode(t, member, gapType); !ok {
		t.Error("struct member at the depth limit rejected")
	}
	member = append(append([]byte(`{"a":1,"v":`), nest(maxDepth)...), '}')
	if _, ok := checkDecode(t, member, gapType); ok {
		t.Error("struct member past the depth limit accepted")
	}
	// A bomb: megabytes of openers must fail cleanly, not exhaust the stack.
	if _, err := DecodeValue(bytes.Repeat([]byte("["), 4<<20), dyn.SequenceOf(dyn.Int32T)); err == nil {
		t.Error("depth bomb accepted")
	}
	if _, err := DecodeValue(bytes.Repeat([]byte(`{"a":`), 1<<20), dyn.Void); err == nil {
		t.Error("object depth bomb accepted")
	}
}

// TestCrossVersion is the wire-compatibility check in codec form: what this
// commit's encoder writes, the parent's decoder (the oracle) reads, and what
// the parent's encoder wrote — sorted members, envelope from encoding/json
// with its trailing newline — this commit's scanner reads.
func TestCrossVersion(t *testing.T) {
	type parentRequest struct {
		Method string            `json:"method"`
		Args   []json.RawMessage `json:"args"`
	}
	type parentError struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	}
	type parentResponse struct {
		Result json.RawMessage `json:"result,omitempty"`
		Error  *parentError    `json:"error,omitempty"`
	}
	for _, v := range append(roundTripValues(), bulkValue(256)) {
		typ := v.Type()
		sig := dyn.MethodSig{Name: "m", Params: []dyn.Param{{Name: "a", Type: typ}}, Result: typ}
		lookup := func(name string) (dyn.MethodSig, bool) { return sig, name == "m" }

		// New bytes under the parent's decoders.
		c := getCodec()
		newReq, err := appendRequest(nil, "m", []dyn.Value{v})
		if err != nil {
			t.Fatal(err)
		}
		var preq parentRequest
		if err := json.Unmarshal(newReq, &preq); err != nil || preq.Method != "m" || len(preq.Args) != 1 {
			t.Fatalf("%s: parent cannot read request %s: %v", typ, newReq, err)
		}
		if got, err := oracleDecodeValue(preq.Args[0], typ); err != nil || !got.Equal(v) {
			t.Fatalf("%s: parent decodes %s as %v, %v", typ, preq.Args[0], got, err)
		}
		newResp, err := appendResult(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		var presp parentResponse
		if err := json.Unmarshal(newResp, &presp); err != nil || presp.Error != nil {
			t.Fatalf("%s: parent cannot read response %s: %v", typ, newResp, err)
		}
		if got, err := oracleDecodeValue(presp.Result, typ); err != nil || !got.Equal(v) {
			t.Fatalf("%s: parent decodes result %s as %v, %v", typ, presp.Result, got, err)
		}

		// Parent bytes under the new scanner.
		raw, err := oracleEncodeValue(v)
		if err != nil {
			t.Fatal(err)
		}
		oldReq, _ := json.Marshal(parentRequest{Method: "m", Args: []json.RawMessage{raw}})
		c.reset(oldReq)
		req, err := c.parseCall(lookup)
		if err != nil || req.stale != nil || req.method != "m" || len(req.args) != 1 || !req.args[0].Equal(v) {
			t.Fatalf("%s: scanner reads parent request %s as %+v, %v", typ, oldReq, req, err)
		}
		var oldResp bytes.Buffer
		_ = json.NewEncoder(&oldResp).Encode(parentResponse{Result: raw})
		c.reset(oldResp.Bytes())
		rep, err := c.parseReply(typ)
		if err != nil || rep.failed || !rep.hasResult || rep.misfit != nil || !rep.result.Equal(v) {
			t.Fatalf("%s: scanner reads parent response %q as %+v, %v", typ, oldResp.Bytes(), rep, err)
		}
		putCodec(c)
	}

	// Failure replies, both directions.
	newErr := appendError(nil, CodeNonExistentMethod, "method \"x\" <gone>")
	var presp parentResponse
	if err := json.Unmarshal(newErr, &presp); err != nil || presp.Error == nil ||
		presp.Error.Code != CodeNonExistentMethod || presp.Error.Message != "method \"x\" <gone>" {
		t.Fatalf("parent reads error reply %s as %+v, %v", newErr, presp.Error, err)
	}
	var oldErr bytes.Buffer
	_ = json.NewEncoder(&oldErr).Encode(parentResponse{Error: &parentError{Code: CodeApplication, Message: "boom <&>"}})
	c := getCodec()
	defer putCodec(c)
	c.reset(oldErr.Bytes())
	rep, err := c.parseReply(dyn.Int32T)
	if err != nil || !rep.failed || rep.failure.Index(0).Str() != CodeApplication || rep.failure.Index(1).Str() != "boom <&>" {
		t.Fatalf("scanner reads parent error reply %q as %+v, %v", oldErr.Bytes(), rep, err)
	}
}

// Signatures the envelope tests and FuzzParseCall resolve against.
var callSigs = map[string]dyn.MethodSig{
	"add": {Name: "add", Params: []dyn.Param{{Name: "a", Type: dyn.Int32T}, {Name: "b", Type: dyn.Int32T}}, Result: dyn.Int32T},
	"echo": {Name: "echo", Params: []dyn.Param{{Name: "items", Type: dyn.SequenceOf(itemType)}},
		Result: dyn.SequenceOf(itemType)},
	"nop": {Name: "nop", Result: dyn.Void},
	"mix": {Name: "mix", Params: []dyn.Param{{Name: "s", Type: dyn.StringT}, {Name: "p", Type: pointType}, {Name: "n", Type: dyn.Int64T}},
		Result: nestType},
}

func lookupCallSig(name string) (dyn.MethodSig, bool) {
	sig, ok := callSigs[name]
	return sig, ok
}

// checkParseCall runs parseCall and the oracle over one request body and
// demands the same verdict, method and arguments. It reports the verdict:
// "malformed", "stale" or "ok".
func checkParseCall(t testing.TB, body []byte) string {
	t.Helper()
	c := getCodec()
	defer putCodec(c)
	c.reset(body)
	got, err := c.parseCall(lookupCallSig)
	want, werr := oracleParseCall(body, lookupCallSig)
	if (err == nil) != (werr == nil) {
		t.Fatalf("request %q: scanner says %v, oracle says %v", body, err, werr)
	}
	if err != nil {
		return "malformed"
	}
	if got.method != want.method || (got.stale != nil) != want.stale {
		t.Fatalf("request %q: scanner method %q stale %v, oracle method %q stale %v", body, got.method, got.stale, want.method, want.stale)
	}
	if got.stale != nil {
		return "stale"
	}
	if len(got.args) != len(want.args) {
		t.Fatalf("request %q: scanner %d args, oracle %d", body, len(got.args), len(want.args))
	}
	for i := range got.args {
		if !got.args[i].Equal(want.args[i]) {
			t.Fatalf("request %q: arg %d: scanner %v, oracle %v", body, i, got.args[i], want.args[i])
		}
	}
	return "ok"
}

var callCases = []struct {
	name, body, verdict string
}{
	{"plain", `{"method":"add","args":[1,2]}`, "ok"},
	{"spaced", " {\n\t\"method\" : \"add\" ,\r\n \"args\" : [ 1 , 2 ] } \n", "ok"},
	{"args first", `{"args":[1,2],"method":"add"}`, "ok"},
	{"unknown members", `{"id":7,"method":"add","jsonrpc":{"v":[2,0]},"args":[1,2],"tail":null}`, "ok"},
	{"no args member", `{"method":"nop"}`, "ok"},
	{"empty args", `{"method":"nop","args":[]}`, "ok"},
	{"duplicate method last wins", `{"method":"nop","args":[1,2],"method":"add"}`, "ok"},
	{"duplicate method before args", `{"method":"nop","method":"add","args":[1,2]}`, "ok"},
	{"duplicate args last wins", `{"method":"add","args":["x"],"args":[1,2]}`, "ok"},
	{"duplicate args bad last", `{"method":"add","args":[1,2],"args":["x"]}`, "stale"},
	{"escaped member names", `{"m\u0065thod":"add","\u0061rgs":[1,2]}`, "ok"},
	{"escaped method", `{"method":"a\u0064d","args":[1,2]}`, "ok"},
	{"structured args", `{"method":"mix","args":["s",{"n":"1","x":2,"k":0},"-5"]}`, "ok"},
	{"unknown method", `{"method":"gone","args":[1,2]}`, "stale"},
	{"unknown method args first", `{"args":[{"a":[1,2,3]}],"method":"gone"}`, "stale"},
	{"no method", `{"args":[1,2]}`, "stale"},
	{"empty object", `{}`, "stale"},
	{"member case matters", `{"Method":"add","args":[1,2]}`, "stale"},
	{"too few args", `{"method":"add","args":[1]}`, "stale"},
	{"too many args", `{"method":"add","args":[1,2,3]}`, "stale"},
	{"args for nullary", `{"method":"nop","args":[1]}`, "stale"},
	{"missing args", `{"method":"add"}`, "stale"},
	{"arg type", `{"method":"add","args":[1,"2"]}`, "stale"},
	{"null arg", `{"method":"add","args":[null,2]}`, "stale"},
	{"null struct arg", `{"method":"mix","args":["s",null,"1"]}`, "stale"},
	{"stale then malformed tail", `{"method":"add","args":[1,"2"],"x":[1,]}`, "malformed"},
	{"stale arg then malformed arg", `{"method":"add","args":["2",[1,]]}`, "malformed"},
	{"unknown method malformed args", `{"method":"gone","args":[1,]}`, "malformed"},
	{"args first malformed", `{"args":[1,],"method":"add"}`, "malformed"},
	{"too many args malformed", `{"method":"add","args":[1,2,3,}`, "malformed"},
	{"null method", `{"method":null,"args":[]}`, "malformed"},
	{"numeric method", `{"method":1,"args":[]}`, "malformed"},
	{"null args", `{"method":"nop","args":null}`, "malformed"},
	{"object args", `{"method":"nop","args":{}}`, "malformed"},
	{"not an object", `["add",1,2]`, "malformed"},
	{"null body", `null`, "malformed"},
	{"empty body", ``, "malformed"},
	{"trailing garbage", `{"method":"add","args":[1,2]}x`, "malformed"},
	{"second envelope", `{"method":"add","args":[1,2]}{"method":"add","args":[1,2]}`, "malformed"},
	{"trailing comma", `{"method":"add","args":[1,2],}`, "malformed"},
	{"unclosed", `{"method":"add","args":[1,2]`, "malformed"},
}

func TestParseCallAgainstOracle(t *testing.T) {
	for _, tc := range callCases {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkParseCall(t, []byte(tc.body)); got != tc.verdict {
				t.Errorf("%q: verdict %s, want %s", tc.body, got, tc.verdict)
			}
		})
	}
}

// TestTruncatedBulkRequest cuts the bulk call at every byte offset: every
// proper prefix is malformed (never a panic, never a stale or accepted
// call), and the whole body is accepted.
func TestTruncatedBulkRequest(t *testing.T) {
	body, err := appendRequest(nil, "echo", []dyn.Value{bulkValue(256)})
	if err != nil {
		t.Fatal(err)
	}
	c := getCodec()
	defer putCodec(c)
	for n := 0; n < len(body); n++ {
		c.reset(body[:n])
		if req, err := c.parseCall(lookupCallSig); err == nil {
			t.Fatalf("prefix of %d/%d bytes parsed as %+v", n, len(body), req)
		}
	}
	if got := checkParseCall(t, body); got != "ok" {
		t.Fatalf("full bulk request: %s", got)
	}
	// The same for a bare value, against the oracle, at a size where the
	// quadratic cost of re-running the oracle stays small.
	raw, _ := EncodeValue(bulkValue(8))
	for n := 0; n < len(raw); n++ {
		if _, ok := checkDecode(t, raw[:n], dyn.SequenceOf(itemType)); ok {
			t.Fatalf("value prefix of %d/%d bytes accepted", n, len(raw))
		}
	}
}

func TestParseReply(t *testing.T) {
	c := getCodec()
	defer putCodec(c)
	parse := func(body string, typ *dyn.Type) (reply, error) {
		c.reset([]byte(body))
		return c.parseReply(typ)
	}
	if r, err := parse(`{"result":3}`, dyn.Int32T); err != nil || !r.hasResult || r.misfit != nil || r.result.Int32() != 3 {
		t.Errorf("plain result: %+v, %v", r, err)
	}
	if r, err := parse(`{"result":null}`, dyn.Void); err != nil || !r.hasResult || r.misfit != nil {
		t.Errorf("void result: %+v, %v", r, err)
	}
	if r, err := parse(`{"result":null}`, dyn.Int32T); err != nil || r.misfit == nil {
		t.Errorf("null for int32 must be a misfit: %+v, %v", r, err)
	}
	if r, err := parse(`{"result":"x","error":{"message":"m","code":"c","extra":1}}`, dyn.Int32T); err != nil || !r.failed ||
		r.failure.Index(0).Str() != "c" || r.failure.Index(1).Str() != "m" {
		t.Errorf("error after misfit result: %+v, %v", r, err)
	}
	if r, err := parse(`{}`, dyn.Int32T); err != nil || r.hasResult || r.failed {
		t.Errorf("empty reply: %+v, %v", r, err)
	}
	for _, bad := range []string{
		``, `null`, `[]`, `{"result":3}x`, `{"result":3} {}`, `{"result":[1,]}`, `{"result":3,}`,
		`{"error":null}`, `{"error":"boom"}`, `{"error":{"code":"c"}}`, `{"error":{"code":1,"message":"m"}}`,
	} {
		if r, err := parse(bad, dyn.Int32T); err == nil {
			t.Errorf("reply %q parsed as %+v", bad, r)
		}
	}
}

// TestStaleErrorCarriesInterface: a stale reply's error object carries the
// document, itself a JSON object, verbatim as its "interface" member, and
// the scanner returns exactly those bytes, white space included; a reader
// that knows only code and message (encoding/json, as a client before this
// change decodes it) reads the same code and message as ever.
func TestStaleErrorCarriesInterface(t *testing.T) {
	doc, err := GenerateDoc(benchDesc(3), "http://127.0.0.1:1/json/X")
	if err != nil {
		t.Fatal(err)
	}
	body := appendStaleError(nil, "method \"x\" <gone>", doc)
	var parent struct {
		Error *struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &parent); err != nil || parent.Error == nil ||
		parent.Error.Code != CodeNonExistentMethod || parent.Error.Message != "method \"x\" <gone>" {
		t.Fatalf("encoding/json reads %s as %+v, %v", body, parent.Error, err)
	}
	c := getCodec()
	defer putCodec(c)
	parse := func(body string) reply {
		t.Helper()
		c.reset([]byte(body))
		r, err := c.parseReply(dyn.Int32T)
		if err != nil || !r.failed || r.failure.Index(0).Str() != CodeNonExistentMethod {
			t.Fatalf("%s: %+v, %v", body, r, err)
		}
		return r
	}
	if r := parse(string(body)); string(r.iface) != doc {
		t.Errorf("interface member = %q, want %q", r.iface, doc)
	}
	if r := parse(`{"error":{"code":"non-existent-method","message":"m"}}`); r.iface != nil {
		t.Errorf("a reply without the member carried %q", r.iface)
	}
	if r := parse(`{"error":{"interface":1,"code":"non-existent-method","interface": {"a" : [1]}  ,"message":"m"}}`); string(r.iface) != ` {"a" : [1]}  ` {
		t.Errorf("the last duplicate, white space and all: %q", r.iface)
	}
}
