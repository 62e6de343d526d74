package soap

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"livedev/internal/dyn"
	"livedev/internal/ifsvr"
)

// The differential checks: everything the call path does to bytes — the
// lexer under ParseXML, the envelope walk of ParseRequest/ParseResponse, the
// typed scanner behind DecodeValue — against the tree codec it replaced
// (oracle_test.go). Each must accept exactly what the oracle accepts and
// build the value the oracle builds. The table tests and the fuzz targets
// share these functions.

// sameValue is dyn.Value.Equal with NaN equal to NaN.
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
	pairType = dyn.MustStructOf("Pair",
		dyn.StructField{Name: "a", Type: dyn.Int32T},
		dyn.StructField{Name: "b", Type: dyn.StringT})
	nestType = dyn.MustStructOf("Nest",
		dyn.StructField{Name: "p", Type: pairType},
		dyn.StructField{Name: "ps", Type: dyn.SequenceOf(pairType)},
		dyn.StructField{Name: "f", Type: dyn.Float64T})
	voidField = dyn.MustStructOf("V",
		dyn.StructField{Name: "v", Type: dyn.Void},
		dyn.StructField{Name: "n", Type: dyn.Int32T})
	// Member names the item skeleton must not cover: the lexer reads the
	// first by its local name and refuses the second's end tag.
	prefixedMember  = dyn.MustStructOf("Prefixed", dyn.StructField{Name: "m:a", Type: dyn.Int32T})
	wideSpaceMember = dyn.MustStructOf("Wide", dyn.StructField{Name: "a\u00a0", Type: dyn.Int32T})
)

// codecTypes are the types every accepted element is decoded against, fit
// or not: a misfit must be a misfit in both decoders.
var codecTypes = []*dyn.Type{
	dyn.Void, dyn.Boolean, dyn.Char, dyn.Int32T, dyn.Int64T, dyn.Float32T, dyn.Float64T, dyn.StringT,
	dyn.SequenceOf(dyn.Int32T), dyn.SequenceOf(dyn.StringT), dyn.SequenceOf(dyn.SequenceOf(dyn.Boolean)),
	pairType, nestType, voidField, dyn.SequenceOf(pairType),
	dyn.SequenceOf(prefixedMember), dyn.SequenceOf(wideSpaceMember),
}

// checkElement decodes one parameter or return element both ways against t.
func checkElement(t *testing.T, what string, e Element, n *Node, typ *dyn.Type) (dyn.Value, bool) {
	t.Helper()
	want, werr := oracleDecodeValue(n, typ)
	got, gerr := DecodeValue(e, typ)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%s as %s: oracle error %v, scanner error %v\n%s", what, typ, werr, gerr, e)
	}
	if werr == nil && !sameValue(got, want) {
		t.Fatalf("%s as %s: oracle %v, scanner %v\n%s", what, typ, want, got, e)
	}
	return got, gerr == nil
}

// checkXML holds ParseXML to the oracle's tree.
func checkXML(t *testing.T, data []byte) {
	t.Helper()
	want, werr := oracleParseXML(data)
	got, gerr := ParseXML(data)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("ParseXML: oracle error %v, lexer error %v\n%q", werr, gerr, data)
	}
	if werr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseXML: trees differ\noracle %s\n lexer %s\n%q", want.Render(), got.Render(), data)
	}
}

// checkRequest holds ParseRequest and the decoding of every parameter
// against each of types to the oracle, and ParseCall to both (checkCall),
// and reports whether the envelope was accepted.
func checkRequest(t *testing.T, data []byte, types ...*dyn.Type) (Request, bool) {
	t.Helper()
	want, werr := oracleParseRequest(data)
	got, gerr := ParseRequest(data)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("ParseRequest: oracle error %v, scanner error %v\n%q", werr, gerr, data)
	}
	for _, typ := range types {
		checkCall(t, data, got, gerr, typ)
	}
	if werr != nil {
		return got, false
	}
	if got.Method != want.Method || len(got.Params) != len(want.Params) {
		t.Fatalf("ParseRequest: oracle %s/%d, scanner %s/%d\n%q", want.Method, len(want.Params), got.Method, len(got.Params), data)
	}
	for i, p := range got.Params {
		for _, typ := range types {
			checkElement(t, "parameter", p, want.Params[i], typ)
		}
	}
	return got, true
}

// checkResponse is checkRequest for response envelopes.
func checkResponse(t *testing.T, data []byte, types ...*dyn.Type) (Response, bool) {
	t.Helper()
	want, werr := oracleParseResponse(data)
	got, gerr := ParseResponse(data)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("ParseResponse: oracle error %v, scanner error %v\n%q", werr, gerr, data)
	}
	for _, typ := range types {
		checkReply(t, data, got, gerr, typ)
	}
	if werr != nil {
		return got, false
	}
	if got.Method != want.Method || (got.Return == nil) != (want.Return == nil) || !reflect.DeepEqual(got.Fault, want.Fault) {
		t.Fatalf("ParseResponse: oracle %+v (fault %+v), scanner %+v (fault %+v)\n%q", want, want.Fault, got, got.Fault, data)
	}
	if got.Return != nil {
		for _, typ := range types {
			checkElement(t, "return", got.Return, want.Return, typ)
		}
	}
	return got, true
}

// checkCall holds ParseCall to the two-pass path — req and gerr, what
// ParseRequest made of data — with every parameter typed typ: the same
// grammar verdict, the method looked up once, and the values DecodeValue
// makes of the handles, or the first parameter's DecodeValue error as
// Stale. A signature of another arity, or none, makes a well-formed call
// stale; a malformed one is malformed whatever the signature.
func checkCall(t *testing.T, data []byte, req Request, gerr error, typ *dyn.Type) {
	t.Helper()
	n := len(req.Params)
	for _, arity := range []int{-1, 0, 1, n, n + 1} { // -1: no such method
		var asked []string
		call, err := ParseCall(data, func(m string) (dyn.MethodSig, bool) {
			asked = append(asked, m)
			params := make([]dyn.Param, max(arity, 0))
			for i := range params {
				params[i] = dyn.Param{Name: "p", Type: typ}
			}
			return dyn.MethodSig{Name: m, Params: params, Result: typ}, arity >= 0
		})
		if (gerr == nil) != (err == nil) {
			t.Fatalf("ParseCall, arity %d of %s: two-pass error %v, one-pass error %v\n%q", arity, typ, gerr, err, data)
		}
		if err != nil {
			continue
		}
		if call.Method != req.Method || len(asked) != 1 || asked[0] != req.Method {
			t.Fatalf("ParseCall: method %q, looked up %q, want %q once\n%q", call.Method, asked, req.Method, data)
		}
		var stale error
		args := make([]dyn.Value, 0, n)
		if arity != n {
			stale = &Fault{Code: "soap:Server", String: FaultNonExistentMethod}
		}
		for i := 0; stale == nil && i < n; i++ {
			v, err := DecodeValue(req.Params[i], typ)
			args, stale = append(args, v), err
		}
		if stale != nil {
			if call.Stale == nil || call.Stale.Error() != stale.Error() || call.Args != nil {
				t.Fatalf("ParseCall, arity %d of %s: stale %v with %d args, want stale %v\n%q", arity, typ, call.Stale, len(call.Args), stale, data)
			}
			continue
		}
		if call.Stale != nil || len(call.Args) != n {
			t.Fatalf("ParseCall, arity %d of %s: stale %v with %d args, want %d args\n%q", arity, typ, call.Stale, len(call.Args), n, data)
		}
		for i, v := range args {
			if !sameValue(call.Args[i], v) {
				t.Fatalf("ParseCall: argument %d is %v, DecodeValue made %v\n%q", i, call.Args[i], v, data)
			}
		}
	}
}

// checkReply holds parseReply, decoding as typ, to the two-pass path — res
// and gerr, what ParseResponse made of data: the same grammar verdict, the
// same method, fault and handles, and the value (or error) DecodeValue
// makes of the return handle.
func checkReply(t *testing.T, data []byte, res Response, gerr error, typ *dyn.Type) {
	t.Helper()
	got, err := parseReply(data, typ)
	if (gerr == nil) != (err == nil) {
		t.Fatalf("parseReply as %s: two-pass error %v, one-pass error %v\n%q", typ, gerr, err, data)
	}
	if err != nil {
		return
	}
	if got.Method != res.Method || !reflect.DeepEqual(got.Fault, res.Fault) || !bytes.Equal(got.Return, res.Return) || !bytes.Equal(got.detail, res.detail) {
		t.Fatalf("parseReply: %+v (fault %+v), ParseResponse %+v (fault %+v)\n%q", got, got.Fault, res, res.Fault, data)
	}
	if res.Return == nil {
		return
	}
	want, werr := DecodeValue(res.Return, typ)
	switch {
	case (werr == nil) != (got.misfit == nil) || werr != nil && werr.Error() != got.misfit.Error():
		t.Fatalf("parseReply as %s: misfit %v, DecodeValue error %v\n%q", typ, got.misfit, werr, data)
	case werr == nil && !sameValue(got.value, want):
		t.Fatalf("parseReply as %s: %v, DecodeValue made %v\n%q", typ, got.value, want, data)
	}
}

// inRequest wraps parameter elements in a request envelope as BuildRequest
// frames them.
func inRequest(params string) []byte {
	return []byte(envPrefix + `<m:call xmlns:m="urn:T">` + params + `</m:call>` + envSuffix)
}

// elementCases are parameter elements, each decoded against typ; ok says
// whether that must succeed, want (when set) what it must yield. Whatever
// the outcome, it must be the oracle's, for typ and for every codecType.
var elementCases = []struct {
	name string
	xml  string
	typ  *dyn.Type
	ok   bool
	want dyn.Value
}{
	// Struct members.
	{"members in order", `<p><a>1</a><b>x</b></p>`, pairType, true, dyn.MustStructValue(pairType, dyn.Int32Value(1), dyn.StringValue("x"))},
	{"members out of order", `<p><b>x</b><a>1</a></p>`, pairType, true, dyn.MustStructValue(pairType, dyn.Int32Value(1), dyn.StringValue("x"))},
	{"duplicate member, first wins", `<p><a>1</a><b>x</b><a>2</a></p>`, pairType, true, dyn.MustStructValue(pairType, dyn.Int32Value(1), dyn.StringValue("x"))},
	{"invalid later duplicate ignored", `<p><a>1</a><a>nope</a><b>x</b></p>`, pairType, true, dyn.MustStructValue(pairType, dyn.Int32Value(1), dyn.StringValue("x"))},
	{"invalid first duplicate counts", `<p><a>nope</a><a>1</a><b>x</b></p>`, pairType, false, dyn.Value{}},
	{"unknown children skipped", `<p><z><a>9</a></z><a>1</a><y/><b>x</b><!-- c --><w>t</w></p>`, pairType, true, dyn.MustStructValue(pairType, dyn.Int32Value(1), dyn.StringValue("x"))},
	{"missing member", `<p><a>1</a></p>`, pairType, false, dyn.Value{}},
	{"self-closed struct", `<p/>`, pairType, false, dyn.Value{}},
	{"member matched by local name", `<p><x:a xmlns:x="u">1</x:a><y:b>x</y:b></p>`, pairType, true, dyn.MustStructValue(pairType, dyn.Int32Value(1), dyn.StringValue("x"))},
	{"member names are case-sensitive", `<p><A>1</A><b>x</b></p>`, pairType, false, dyn.Value{}},
	{"text between members", `<p> <a>1</a> stray <b>x</b> </p>`, pairType, true, dyn.MustStructValue(pairType, dyn.Int32Value(1), dyn.StringValue("x"))},
	{"nested", `<p><f>1.5</f><ps><item><a>2</a><b>q</b></item><other><b>r</b><a>3</a></other></ps><p><a>1</a><b>x</b></p></p>`, nestType, true, dyn.Value{}},
	{"void member skips its content", `<p><v><deep><er>&amp;</er></deep></v><n>4</n></p>`, voidField, true, dyn.Value{}},
	{"void member still required", `<p><n>4</n></p>`, voidField, false, dyn.Value{}},

	// Sequences.
	{"items by position, whatever their names", `<p><item>1</item><i>2</i><m:x>3</m:x></p>`, dyn.SequenceOf(dyn.Int32T), true, dyn.MustSequenceValue(dyn.Int32T, dyn.Int32Value(1), dyn.Int32Value(2), dyn.Int32Value(3))},
	{"empty sequence", `<p></p>`, dyn.SequenceOf(dyn.Int32T), true, dyn.MustSequenceValue(dyn.Int32T)},
	{"self-closed sequence", `<p/>`, dyn.SequenceOf(dyn.Int32T), true, dyn.MustSequenceValue(dyn.Int32T)},
	{"text and comments between items", `<p> a <item>1</item><!-- x --><![CDATA[ <item>9</item> ]]><item>2</item></p>`, dyn.SequenceOf(dyn.Int32T), true, dyn.MustSequenceValue(dyn.Int32T, dyn.Int32Value(1), dyn.Int32Value(2))},
	{"bad item", `<p><item>1</item><item>x</item></p>`, dyn.SequenceOf(dyn.Int32T), false, dyn.Value{}},
	{"sequence of sequences", `<p><item><item>true</item><item>0</item></item><item/></p>`, dyn.SequenceOf(dyn.SequenceOf(dyn.Boolean)), true, dyn.Value{}},

	// Sequence items as the encoder writes them, which the item skeleton
	// reads, and each way an item can differ from that, which the lexer
	// reads instead.
	{"encoded items", `<p>` + pairItem(`1`, `x`) + pairItem(`2`, `y`) + `</p>`, dyn.SequenceOf(pairType), true, pairs("1x", "2y")},
	{"white space between encoded items", "<p>\n " + pairItem(`1`, `x`) + "\n " + pairItem(`2`, `y`) + "\n</p>", dyn.SequenceOf(pairType), true, pairs("1x", "2y")},
	{"reference in a member", `<p>` + pairItem(`1`, `x&amp;`) + pairItem(`2`, `y`) + `</p>`, dyn.SequenceOf(pairType), true, pairs("1x&", "2y")},
	{"reordered members", `<p><item xsi:type="tns:Pair"><b xsi:type="xsd:string">x</b><a xsi:type="xsd:int">1</a></item>` + pairItem(`2`, `y`) + `</p>`, dyn.SequenceOf(pairType), true, pairs("1x", "2y")},
	{"item missing a member", `<p>` + pairItem(`1`, `x`) + `<item xsi:type="tns:Pair"><a xsi:type="xsd:int">2</a></item></p>`, dyn.SequenceOf(pairType), false, dyn.Value{}},
	{"prefixed item", `<p><m:item xsi:type="tns:Pair"><a xsi:type="xsd:int">1</a><b xsi:type="xsd:string">x</b></m:item></p>`, dyn.SequenceOf(pairType), true, pairs("1x")},
	{"item with another attribute", `<p><item xsi:type="tns:Pair" id="i1"><a xsi:type="xsd:int">1</a><b xsi:type="xsd:string">x</b></item></p>`, dyn.SequenceOf(pairType), true, pairs("1x")},
	{"self-closed item", `<p><item xsi:type="xsd:string">a</item><item xsi:type="xsd:string"/></p>`, dyn.SequenceOf(dyn.StringT), true, dyn.MustSequenceValue(dyn.StringT, dyn.StringValue("a"), dyn.StringValue(""))},
	{"empty string member, self-closed", `<p><item xsi:type="tns:Pair"><a xsi:type="xsd:int">1</a><b xsi:type="xsd:string"/></item></p>`, dyn.SequenceOf(pairType), true, pairs("1")},
	{"white space in an item's end tag", `<p><item xsi:type="tns:Pair"><a xsi:type="xsd:int">1</a><b xsi:type="xsd:string">x</b></item ></p>`, dyn.SequenceOf(pairType), true, pairs("1x")},
	{"member refused, as encoded", `<p>` + pairItem(`1`, `x`) + pairItem(`two`, `y`) + `</p>`, dyn.SequenceOf(pairType), false, dyn.Value{}},
	{"CDATA and a comment in encoded items", `<p><item xsi:type="xsd:int"><![CDATA[1]]></item><item xsi:type="xsd:int">2<!-- --></item></p>`, dyn.SequenceOf(dyn.Int32T), true, dyn.MustSequenceValue(dyn.Int32T, dyn.Int32Value(1), dyn.Int32Value(2))},
	{"member name with a prefix", `<p><item xsi:type="tns:Prefixed"><m:a xsi:type="xsd:int">1</m:a></item></p>`, dyn.SequenceOf(prefixedMember), false, dyn.Value{}},
	{"member name ending in a wide space", "<p><item xsi:type=\"tns:Wide\"><a\u00a0 xsi:type=\"xsd:int\">1</a\u00a0></item></p>", dyn.SequenceOf(wideSpaceMember), false, dyn.Value{}},

	// Scalars: direct character data only.
	{"scalar ignores child elements", `<p>1<x>9</x>2</p>`, dyn.Int32T, true, dyn.Int32Value(12)},
	{"string ignores child elements", `<p>ab<x>ZZ</x>cd<y/></p>`, dyn.StringT, true, dyn.StringValue("abcd")},
	{"CDATA", `<p><![CDATA[<a> & ]]]></p>`, dyn.StringT, true, dyn.StringValue("<a> & ]")},
	{"CDATA joins text", `<p>a&amp;<![CDATA[&amp;]]>b</p>`, dyn.StringT, true, dyn.StringValue("a&&amp;b")},
	{"empty CDATA", `<p><![CDATA[]]></p>`, dyn.StringT, true, dyn.StringValue("")},
	{"CDATA in a number", `<p>4<![CDATA[2]]></p>`, dyn.Int32T, true, dyn.Int32Value(42)},
	{"the five entities", `<p>&lt;&gt;&amp;&quot;&apos;</p>`, dyn.StringT, true, dyn.StringValue(`<>&"'`)},
	{"unknown entity", `<p>&nbsp;</p>`, dyn.StringT, false, dyn.Value{}},
	{"unterminated entity", `<p>&amp</p>`, dyn.StringT, false, dyn.Value{}},
	{"entity split by markup", `<p>&am<!-- -->p;</p>`, dyn.StringT, false, dyn.Value{}},
	{"decimal reference", `<p>&#65;&#955;&#128512;</p>`, dyn.StringT, true, dyn.StringValue("Aλ😀")},
	{"hex reference", `<p>&#x41;&#X3bb;&#x1F600;</p>`, dyn.StringT, true, dyn.StringValue("Aλ😀")},
	{"tab, newline, return references", `<p>&#9;&#xA;&#13;</p>`, dyn.StringT, true, dyn.StringValue("\t\n\r")},
	{"NUL reference", `<p>&#0;</p>`, dyn.StringT, false, dyn.Value{}},
	{"control reference", `<p>&#x1F;</p>`, dyn.StringT, false, dyn.Value{}},
	{"surrogate reference", `<p>&#xD800;</p>`, dyn.StringT, false, dyn.Value{}},
	{"U+FFFE reference", `<p>&#xFFFE;</p>`, dyn.StringT, false, dyn.Value{}},
	{"reference past U+10FFFF", `<p>&#x110000;</p>`, dyn.StringT, false, dyn.Value{}},
	{"reference overflowing", `<p>&#99999999999999999999;</p>`, dyn.StringT, false, dyn.Value{}},
	{"empty references", `<p>&#;</p>`, dyn.StringT, false, dyn.Value{}},
	{"empty hex reference", `<p>&#x;</p>`, dyn.StringT, false, dyn.Value{}},
	{"hex digit in decimal reference", `<p>&#1a;</p>`, dyn.StringT, false, dyn.Value{}},
	{"bad reference in a skipped child", `<p><z>&#0;</z><a>1</a><b>x</b></p>`, pairType, false, dyn.Value{}},
	{"bad reference in an attribute", `<p k="&bogus;">x</p>`, dyn.StringT, false, dyn.Value{}},
	{"references in an attribute", `<p k='&lt;&#65;"'>x</p>`, dyn.StringT, true, dyn.StringValue("x")},
	{"raw control and invalid bytes pass through", "<p>a\x01\xff</p>", dyn.StringT, true, dyn.StringValue("a\x01\xff")},
	{"white space kept in strings", "<p> a\n b </p>", dyn.StringT, true, dyn.StringValue(" a\n b ")},

	// Chars: exactly one rune.
	{"char", `<p>Z</p>`, dyn.Char, true, dyn.CharValue('Z')},
	{"white space char", `<p> </p>`, dyn.Char, true, dyn.CharValue(' ')},
	{"wide char by reference", `<p>&#955;</p>`, dyn.Char, true, dyn.CharValue('λ')},
	{"char from CDATA", `<p><![CDATA[<]]></p>`, dyn.Char, true, dyn.CharValue('<')},
	{"empty char", `<p></p>`, dyn.Char, false, dyn.Value{}},
	{"self-closed char", `<p/>`, dyn.Char, false, dyn.Value{}},
	{"two chars", `<p>ab</p>`, dyn.Char, false, dyn.Value{}},
	{"invalid byte as a char", "<p>\xff</p>", dyn.Char, true, dyn.CharValue(0xFFFD)},
	{"truncated rune as a char", "<p>\xe2\x82</p>", dyn.Char, false, dyn.Value{}},

	// Numbers and booleans: white space trimmed.
	{"white space around an int", "<p> \t\n42\r </p>", dyn.Int32T, true, dyn.Int32Value(42)},
	{"unicode white space around an int", "<p> 42 </p>", dyn.Int32T, true, dyn.Int32Value(42)},
	{"white space inside an int", `<p>4 2</p>`, dyn.Int32T, false, dyn.Value{}},
	{"signed ints", `<p>+7</p>`, dyn.Int64T, true, dyn.Int64Value(7)},
	{"int32 range", `<p>2147483648</p>`, dyn.Int32T, false, dyn.Value{}},
	{"int64 range", `<p>-9223372036854775808</p>`, dyn.Int64T, true, dyn.Int64Value(math.MinInt64)},
	{"empty int", `<p/>`, dyn.Int32T, false, dyn.Value{}},
	{"float", `<p> -1.5e3 </p>`, dyn.Float64T, true, dyn.Float64Value(-1500)},
	{"hex float", `<p>0x1p-2</p>`, dyn.Float64T, true, dyn.Float64Value(0.25)},
	{"INF", `<p>INF</p>`, dyn.Float64T, true, dyn.Float64Value(math.Inf(1))},
	{"+INF", `<p> +INF </p>`, dyn.Float32T, true, dyn.Float32Value(float32(math.Inf(1)))},
	{"-INF", `<p>-INF</p>`, dyn.Float64T, true, dyn.Float64Value(math.Inf(-1))},
	{"NaN", `<p>NaN</p>`, dyn.Float64T, true, dyn.Float64Value(math.NaN())},
	{"strconv's own infinity spellings", `<p>Infinity</p>`, dyn.Float64T, true, dyn.Float64Value(math.Inf(1))},
	{"float32 overflow", `<p>9e99</p>`, dyn.Float32T, false, dyn.Value{}},
	{"long float literal", `<p>` + strings.Repeat("1", 40) + `.5</p>`, dyn.Float64T, true, dyn.Value{}},
	{"booleans", `<p> true </p>`, dyn.Boolean, true, dyn.BoolValue(true)},
	{"numeric booleans", `<p>0</p>`, dyn.Boolean, true, dyn.BoolValue(false)},
	{"capitalised boolean", `<p>True</p>`, dyn.Boolean, false, dyn.Value{}},

	// Void: never looked at.
	{"void with content", `<p><a>&amp;</a>text</p>`, dyn.Void, true, dyn.VoidValue()},

	// Markup between and around elements.
	{"comments, PIs, DOCTYPE", `<p><!-- <a>7</a> --><?pi <a>8</a> ?><!DOCTYPE x><a>1</a><b>x</b></p>`, pairType, true, dyn.MustStructValue(pairType, dyn.Int32Value(1), dyn.StringValue("x"))},
	{"shortest comment and PI", `<p><!--><?>5</p>`, dyn.Int32T, true, dyn.Int32Value(5)},
	{"unterminated comment", `<p><!-- </p>`, dyn.StringT, false, dyn.Value{}},
	{"unterminated CDATA", `<p><![CDATA[ ]]</p>`, dyn.StringT, false, dyn.Value{}},
	{"unterminated PI", `<p><? </p>`, dyn.StringT, false, dyn.Value{}},
	{"prefixed start and end tags", `<m:p xmlns:m="u"><m:a>1</m:a><q:b>x</q:b></m:p>`, pairType, true, dyn.MustStructValue(pairType, dyn.Int32Value(1), dyn.StringValue("x"))},
	{"end tag must repeat the prefix", `<m:p>1</p>`, dyn.Int32T, false, dyn.Value{}},
	{"end tag with another prefix", `<m:p>1</n:p>`, dyn.Int32T, false, dyn.Value{}},
	{"white space in an end tag", "<p>1</p \n>", dyn.Int32T, true, dyn.Int32Value(1)},
	{"white space before an end tag's name", `<p>1</ p>`, dyn.Int32T, true, dyn.Int32Value(1)},
	{"attribute in an end tag", `<p>1</p a="b">`, dyn.Int32T, false, dyn.Value{}},
	{"tag name ending in a wide space", "<p >1</p >", dyn.Int32T, false, dyn.Value{}},
	{"empty end tag", `<p>1</>`, dyn.Int32T, false, dyn.Value{}},
	{"empty prefix-only name", `<m:>1</m:>`, dyn.Int32T, true, dyn.Int32Value(1)},
	{"attributes in every shape", `<p a="1" b='2' c = "3"  d="" a="again">1</p>`, dyn.Int32T, true, dyn.Int32Value(1)},
	{"markup characters in an attribute", `<p a="<>/" b='"'>1</p>`, dyn.Int32T, true, dyn.Int32Value(1)},
	{"attribute without a value", `<p a>1</p>`, dyn.Int32T, false, dyn.Value{}},
	{"attribute without quotes", `<p a=1>1</p>`, dyn.Int32T, false, dyn.Value{}},
	{"attribute without a name", `<p ="1">1</p>`, dyn.Int32T, false, dyn.Value{}},
	{"unterminated attribute", `<p a="1>1</p>`, dyn.Int32T, false, dyn.Value{}},
	{"stray slash", `<p / >1</p>`, dyn.Int32T, false, dyn.Value{}},
	{"self-closed with a space", `<p a="1" />`, dyn.StringT, true, dyn.StringValue("")},
	{"no element name", `< p>1</p>`, dyn.Int32T, false, dyn.Value{}},
	{"mismatched nesting", `<p><a>1</b></p>`, dyn.StringT, false, dyn.Value{}},
	{"crossed nesting", `<p><a><b></a></b></p>`, dyn.StringT, false, dyn.Value{}},
	{"unclosed child", `<p><a>1</p>`, dyn.StringT, false, dyn.Value{}},
}

// sample is a value of type t with no empty string or sequence in it, so
// the encoder writes every element out in full: the value seeds the fuzz
// targets and the skeleton pin with what the encoder writes for each type.
func sample(t *dyn.Type) dyn.Value {
	switch t.Kind() {
	case dyn.KindBoolean:
		return dyn.BoolValue(true)
	case dyn.KindChar:
		return dyn.CharValue('c')
	case dyn.KindInt32:
		return dyn.Int32Value(-7)
	case dyn.KindInt64:
		return dyn.Int64Value(1 << 40)
	case dyn.KindFloat32:
		return dyn.Float32Value(0.5)
	case dyn.KindFloat64:
		return dyn.Float64Value(-2.25)
	case dyn.KindString:
		return dyn.StringValue("s-1")
	case dyn.KindSequence:
		return dyn.MustSequenceValue(t.Elem(), sample(t.Elem()), sample(t.Elem()))
	case dyn.KindStruct:
		fields := make([]dyn.Value, t.NumFields())
		for i := range fields {
			fields[i] = sample(t.Field(i).Type)
		}
		return dyn.MustStructValue(t, fields...)
	}
	return dyn.VoidValue()
}

// pairItem is a sequence item of pairType as the encoder writes it, with
// the members' character data a and b as given.
func pairItem(a, b string) string {
	return `<item xsi:type="tns:Pair"><a xsi:type="xsd:int">` + a + `</a><b xsi:type="xsd:string">` + b + `</b></item>`
}

// pairs is a sequence of pairType, each pair given as its int's one digit
// and its string.
func pairs(each ...string) dyn.Value {
	elems := make([]dyn.Value, len(each))
	for i, p := range each {
		elems[i] = dyn.MustStructValue(pairType, dyn.Int32Value(int32(p[0]-'0')), dyn.StringValue(p[1:]))
	}
	return dyn.MustSequenceValue(pairType, elems...)
}

func TestDecodeAgainstOracle(t *testing.T) {
	for _, tc := range elementCases {
		t.Run(tc.name, func(t *testing.T) {
			data := inRequest(tc.xml)
			checkXML(t, data)
			req, accepted := checkRequest(t, data, codecTypes...)
			if !accepted {
				if tc.ok {
					t.Fatalf("envelope rejected, want %s decoded", tc.typ)
				}
				return
			}
			if len(req.Params) != 1 {
				t.Fatalf("%d parameters, the case is one element", len(req.Params))
			}
			if !bytes.Equal(req.Params[0], []byte(tc.xml)) {
				t.Errorf("handle is %q, want the element's bytes %q", req.Params[0], tc.xml)
			}
			tree, err := oracleParseXML([]byte(tc.xml))
			if err != nil {
				t.Fatal(err)
			}
			got, ok := checkElement(t, "element", req.Params[0], tree, tc.typ)
			if ok != tc.ok {
				t.Fatalf("decoded as %s: %v, want success %v", tc.typ, ok, tc.ok)
			}
			if ok && tc.want.Type() != dyn.Void && !sameValue(got, tc.want) {
				t.Errorf("decoded %v, want %v", got, tc.want)
			}
		})
	}
}

// envelopeCases are whole documents run through ParseXML, ParseRequest and
// ParseResponse; ok says whether ParseRequest, then ParseResponse, must
// accept.
var envelopeCases = []struct {
	name         string
	doc          string
	okReq, okRes bool
}{
	{"built request", string(inRequest(`<a xsi:type="xsd:int">1</a><b/>`)), true, false},
	{"no parameters", string(inRequest(``)), true, false},
	{"self-closed call", envPrefix + `<m:call xmlns:m="urn:T"/>` + envSuffix, true, false},
	{"bare names", `<Envelope><Body><call><a>1</a></call></Body></Envelope>`, true, false},
	{"foreign prefixes", `<S:Envelope xmlns:S="u"><S:Body><ns1:call><a>1</a></ns1:call></S:Body></S:Envelope>`, true, false},
	{"prolog, DOCTYPE, comments and white space around the root", "\ufeff<?xml version=\"1.0\"?>\n<!DOCTYPE e>\n<!-- c -->\n<Envelope><Body><call/></Body></Envelope>\n<!-- d --><?p?>\n", true, false},
	{"text outside the root is not checked", `&bogus;<Envelope><Body><call/></Body></Envelope>&#0; trailing`, true, false},
	{"CDATA outside the root", `<![CDATA[x]]><Envelope><Body><call/></Body></Envelope><![CDATA[<a>]]>`, true, false},
	{"Header before Body", `<Envelope><Header><h mustUnderstand="1">&amp;</h></Header><Body><call><a>1</a></call></Body></Envelope>`, true, false},
	{"Body inside Header is not the Body", `<Envelope><Header><Body><x/><y/></Body></Header><Body><call/></Body></Envelope>`, true, false},
	{"only a nested Body", `<Envelope><Header><Body><call/></Body></Header></Envelope>`, false, false},
	{"second Body ignored", `<Envelope><Body><call><a>1</a></call></Body><Body><x/><y/></Body></Envelope>`, true, false},
	{"first Body counts even if empty", `<Envelope><Body/><Body><call/></Body></Envelope>`, false, false},
	{"elements after Body", `<Envelope><Body><call/></Body><Trailer><call><a>2</a></call></Trailer></Envelope>`, true, false},
	{"text and markup in Body", `<Envelope><Body> t <!-- c --><call/><![CDATA[<x/>]]> </Body></Envelope>`, true, false},
	{"two Body children", `<Envelope><Body><a/><b/></Body></Envelope>`, false, false},
	{"empty Body", `<Envelope><Body></Body></Envelope>`, false, false},
	{"self-closed Body", `<Envelope><Body/></Envelope>`, false, false},
	{"no Body", `<Envelope><Header/></Envelope>`, false, false},
	{"self-closed Envelope", `<Envelope/>`, false, false},
	{"wrong root", `<Envelop><Body><call/></Body></Envelop>`, false, false},
	{"root matched by local name", `<a:b:Envelope><x:Body><call/></x:Body></a:b:Envelope>`, true, false},
	{"body is case-sensitive", `<Envelope><body><call/></body></Envelope>`, false, false},
	{"empty document", ``, false, false},
	{"text only", `garbage`, false, false},
	{"only a comment", `<!-- <Envelope/> -->`, false, false},
	{"two roots", `<Envelope><Body><call/></Body></Envelope><Envelope/>`, false, false},
	{"trailing end tag", `<Envelope><Body><call/></Body></Envelope></Envelope>`, false, false},
	{"trailing unterminated comment", `<Envelope><Body><call/></Body></Envelope><!-- `, false, false},
	{"trailing lone bracket", `<Envelope><Body><call/></Body></Envelope><`, false, false},
	{"unclosed root", `<Envelope><Body><call/></Body>`, false, false},
	{"malformed inside a skipped Header", `<Envelope><Header><h a=b/></Header><Body><call/></Body></Envelope>`, false, false},
	{"malformed inside a second Body", `<Envelope><Body><call/></Body><Body>&x;</Body></Envelope>`, false, false},
	{"malformed inside a parameter", `<Envelope><Body><call><a><b></a></call></Body></Envelope>`, false, false},
	{"misfitting parameter before malformed bytes", `<Envelope><Body><add><a>x</a><b><c></b></add></Body></Envelope>`, false, false},
	{"unknown method before a malformed tail", `<Envelope><Body><nosuch><a>1</a></nosuch></Body><Trailer>&bogus;</Trailer></Envelope>`, false, false},
	{"extra parameter before a malformed tail", `<Envelope><Body><add><a>1</a><b>2</b><c>3</c></add></Body></Envelope><`, false, false},
	{"call that fits", `<Envelope><Body><m:add xmlns:m="urn:T"><a>1</a><b> 2 </b></m:add></Body></Envelope>`, true, false},
	{"well-formed unknown method", `<Envelope><Body><nosuch><a>1</a><b>2</b></nosuch></Body></Envelope>`, true, false},
	{"missing parameter", `<Envelope><Body><add><a>1</a></add></Body></Envelope>`, true, false},
	{"extra parameter", `<Envelope><Body><add><a>1</a><b>2</b><c>3</c></add></Body></Envelope>`, true, false},
	{"misfitting parameter", `<Envelope><Body><add><a>x</a><b>2</b></add></Body></Envelope>`, true, false},

	{"built response", envPrefix + `<m:addResponse xmlns:m="urn:T"><return xsi:type="xsd:int">5</return></m:addResponse>` + envSuffix, true, true},
	{"void response", envPrefix + `<m:resetResponse xmlns:m="urn:T"/>` + envSuffix, true, true},
	{"return is the first child so named", `<Envelope><Body><fResponse><other>1</other><r:return>2</r:return><return>3</return></fResponse></Body></Envelope>`, true, true},
	{"two return children, the first decoded", `<Envelope><Body><fResponse><return>1</return><return>x</return></fResponse></Body></Envelope>`, true, true},
	{"two return children, the first misfits", `<Envelope><Body><fResponse><return>x</return><return>1</return></fResponse></Body></Envelope>`, true, true},
	{"no return element", `<Envelope><Body><fResponse><result>2</result></fResponse></Body></Envelope>`, true, true},
	{"bare Response", `<Envelope><Body><Response><return>1</return></Response></Body></Envelope>`, true, false},
	{"not a response", `<Envelope><Body><fResponses/></Body></Envelope>`, true, false},
	{"built fault", BuildFault(&Fault{Code: "soap:Server", String: FaultNonExistentMethod, Detail: `method "x" & <y>`}), true, true},
	{"fault carrying an interface", BuildFault(&Fault{Code: "soap:Server", String: FaultNonExistentMethod, Detail: "method f", Interface: &ifsvr.Document{Content: `<definitions><x a="&amp;"/>]]></definitions>`}}), true, true},
	{"fault without detail", BuildFault(&Fault{Code: "soap:Client", String: FaultMalformedRequest}), true, true},
	{"fault members in any order, first wins", `<Envelope><Body><e:Fault><detail>d<x>no</x>1</detail><faultstring>s&amp;</faultstring><faultstring>t</faultstring><faultcode><![CDATA[c]]></faultcode></e:Fault></Body></Envelope>`, true, true},
	{"empty fault", `<Envelope><Body><Fault/></Body></Envelope>`, true, true},
	{"fault is case-sensitive", `<Envelope><Body><fault/></Body></Envelope>`, true, false},
}

// callVerdicts are what ParseCall must make of some envelopeCases against
// the live signature add(a int, b int): a grammar error anywhere wins over
// every misfit before it, and a well-formed call that does not fit is stale.
var callVerdicts = map[string]string{
	"misfitting parameter before malformed bytes": "malformed",
	"unknown method before a malformed tail":      "malformed",
	"extra parameter before a malformed tail":     "malformed",
	"call that fits":             "fits",
	"well-formed unknown method": "stale",
	"missing parameter":          "stale",
	"extra parameter":            "stale",
	"misfitting parameter":       "stale",
}

func TestEnvelopesAgainstOracle(t *testing.T) {
	add := dyn.MethodSig{Name: "add", Params: []dyn.Param{{Name: "a", Type: dyn.Int32T}, {Name: "b", Type: dyn.Int32T}}, Result: dyn.Int32T}
	for _, tc := range envelopeCases {
		t.Run(tc.name, func(t *testing.T) {
			data := []byte(tc.doc)
			checkXML(t, data)
			if _, ok := checkRequest(t, data, codecTypes...); ok != tc.okReq {
				t.Errorf("ParseRequest accepted: %v, want %v", ok, tc.okReq)
			}
			if _, ok := checkResponse(t, data, codecTypes...); ok != tc.okRes {
				t.Errorf("ParseResponse accepted: %v, want %v", ok, tc.okRes)
			}
			want, ok := callVerdicts[tc.name]
			if !ok {
				return
			}
			call, err := ParseCall(data, func(m string) (dyn.MethodSig, bool) { return add, m == "add" })
			got := "fits"
			switch {
			case err != nil:
				got = "malformed"
			case call.Stale != nil:
				got = "stale"
			case call.Args[0].Int32() != 1 || call.Args[1].Int32() != 2:
				t.Errorf("add called with %v", call.Args)
			}
			if got != want {
				t.Errorf("ParseCall reads the call as %s (%v, stale %v), want %s", got, err, call.Stale, want)
			}
		})
	}
}

// A reply decodes its first return child, and a fault reply keeps the
// interface it carries.
func TestParseReply(t *testing.T) {
	byName := func(name string) []byte {
		for _, tc := range envelopeCases {
			if tc.name == name {
				return []byte(tc.doc)
			}
		}
		t.Fatalf("no envelope case %q", name)
		return nil
	}
	res, err := parseReply(byName("two return children, the first decoded"), dyn.Int32T)
	if err != nil || res.misfit != nil || res.value.Int32() != 1 {
		t.Errorf("first of two returns: %v, misfit %v, %v", res.value, res.misfit, err)
	}
	res, err = parseReply(byName("two return children, the first misfits"), dyn.Int32T)
	if err != nil || res.misfit == nil {
		t.Errorf("first of two returns misfits: %v, misfit %v, %v", res.value, res.misfit, err)
	}
	res, err = parseReply(byName("fault carrying an interface"), dyn.Int32T)
	if err != nil || res.Fault == nil || res.Fault.String != FaultNonExistentMethod {
		t.Fatalf("fault reply: %+v, %v", res.Fault, err)
	}
	if text, ok := res.detail.childText("interface"); !ok || text != `<definitions><x a="&amp;"/>]]></definitions>` {
		t.Errorf("fault reply carries interface %q, %v", text, ok)
	}
}

// A document cut short anywhere is malformed, in the scanner at every
// offset of the bulk request; the oracle, five times slower, vouches for the
// envelope framing, the first and last items and a sample of the rest.
func TestTruncatedBulkRequest(t *testing.T) {
	raw := bulkRequest(t)
	for n := 0; n < len(raw); n++ {
		if _, err := ParseRequest(raw[:n]); err == nil {
			t.Fatalf("scanner accepts the request cut at byte %d of %d", n, len(raw))
		}
		if n < 1024 || n > len(raw)-1024 || n%97 == 0 {
			if _, err := oracleParseRequest(raw[:n]); err == nil {
				t.Fatalf("oracle accepts the request cut at byte %d of %d", n, len(raw))
			}
		}
	}
	checkRequest(t, raw, dyn.SequenceOf(bulkItem))
}

// A million levels of nesting where the signature has nothing to decode —
// under an unknown struct member, under a void parameter — cost heap for the
// lexer's name stack, never goroutine stack: skipping is a loop. Unclosed,
// the document is malformed; closed, it is a well-formed document (the
// oracle, a node per level, agrees on a shallower one), and what it nests
// decodes as nothing.
func TestNestingBomb(t *testing.T) {
	bomb := func(levels int, closed bool) (param string, request []byte) {
		nest := strings.Repeat("<d>", levels)
		if closed {
			nest += strings.Repeat("</d>", levels)
		}
		param = `<v>` + nest + `</v>`
		return param, inRequest(`<s><z>` + nest + `</z><a>1</a><b>x</b></s>` + param)
	}
	const levels = 1 << 20

	param, data := bomb(levels, false)
	if _, err := ParseRequest(data); err == nil {
		t.Error("unclosed bomb accepted")
	}
	if _, err := DecodeValue(Element(param), pairType); err == nil {
		t.Error("unclosed bomb decoded")
	}

	_, data = bomb(levels, true)
	req, err := ParseRequest(data)
	if err != nil || len(req.Params) != 2 {
		t.Fatalf("closed bomb: %d parameters, %v", len(req.Params), err)
	}
	if v, err := DecodeValue(req.Params[0], pairType); err != nil || v.Index(0).Int32() != 1 || v.Index(1).Str() != "x" {
		t.Errorf("struct beside the bomb = %v, %v", v, err)
	}
	if v, err := DecodeValue(req.Params[1], dyn.Void); err != nil || !v.IsVoid() {
		t.Errorf("void over the bomb = %v, %v", v, err)
	}
	if _, err := DecodeValue(req.Params[1], voidField); err == nil {
		t.Error("the bomb decoded as a struct")
	}

	for _, closed := range []bool{false, true} {
		_, data := bomb(levels>>4, closed)
		if _, ok := checkRequest(t, data, pairType, dyn.Void, voidField, dyn.StringT); ok != closed {
			t.Errorf("oracle accepts the bomb: %v, closed: %v", ok, closed)
		}
	}
}

// TestCrossVersion: the bytes this encoder writes are the bytes the parent's
// tree encoder wrote, and each side's decoder reads the other's envelopes —
// so a parent client and a new server (or the reverse) interoperate.
func TestCrossVersion(t *testing.T) {
	values := []dyn.Value{
		dyn.BoolValue(true), dyn.CharValue('λ'), dyn.CharValue('<'), dyn.Int32Value(-5), dyn.Int64Value(1 << 60),
		dyn.Float32Value(1.25), dyn.Float64Value(-math.Pi), dyn.Float64Value(math.Inf(-1)), dyn.Float64Value(1e21),
		dyn.StringValue(`needs <escaping> & "quotes" 'too'` + "\t\r\n\x01\xff"), dyn.StringValue(""),
		dyn.MustSequenceValue(dyn.Int32T), dyn.MustSequenceValue(dyn.StringT, dyn.StringValue("a"), dyn.StringValue("")),
		dyn.MustStructValue(pairType, dyn.Int32Value(7), dyn.StringValue("alice")),
		bulkValue(),
	}
	for _, v := range values {
		typ := v.Type()
		tree, err := oracleEncodeValue("return", v)
		if err != nil {
			t.Fatal(err)
		}
		resp := NewNode("m:fResponse")
		resp.Attrs["xmlns:m"] = "urn:T"
		resp.Append(tree)
		parent := nodeEnvelope(resp).Render()
		built, err := BuildResponse("urn:T", "f", v)
		if err != nil {
			t.Fatal(err)
		}
		if built != parent {
			t.Fatalf("%s: encoder diverged from the parent's\n got %s\nwant %s", typ, built, parent)
		}
		// One envelope, both decoders. Strings the encoder had to repair
		// (U+FFFD for what XML cannot carry) come back repaired.
		want := v
		if typ.Kind() == dyn.KindString {
			want = dyn.StringValue(strings.NewReplacer("\x01", "\uFFFD", "\xff", "\uFFFD").Replace(v.Str()))
		}
		res, ok := checkResponse(t, []byte(built), typ)
		if !ok || res.Method != "f" {
			t.Fatalf("%s: response not accepted: %+v", typ, res)
		}
		if got, err := DecodeValue(res.Return, typ); err != nil || !sameValue(got, want) {
			t.Fatalf("%s: decoded %v, %v", typ, got, err)
		}
	}
}

// TestEncodedItemsMatchSkeleton pins the item skeleton to the encoder: every
// item the encoder writes for the bulk payload, in a request and in a
// response, and for a sample of each sequence type of codecTypes whose items
// the skeleton covers, is read by matchItem, none by the lexer, and yields
// the value encoded.
func TestEncodedItemsMatchSkeleton(t *testing.T) {
	type seq struct {
		name string
		e    Element
		v    dyn.Value
	}
	resp, err := BuildResponse("urn:Bench", "echoAll", bulkValue())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ParseResponse([]byte(resp))
	if err != nil {
		t.Fatal(err)
	}
	req, err := ParseRequest(bulkRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	seqs := []seq{{"bulk request", req.Params[0], bulkValue()}, {"bulk response", res.Return, bulkValue()}}
	for _, typ := range []*dyn.Type{dyn.SequenceOf(dyn.Int32T), dyn.SequenceOf(dyn.StringT), dyn.SequenceOf(pairType)} {
		v := sample(typ)
		e, err := appendValue(nil, "p", v)
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq{typ.String(), e, v})
	}
	for _, s := range seqs {
		d := new(decoder)
		if err := d.enter(s.e); err != nil {
			t.Fatal(err)
		}
		elem := s.v.Type().Elem()
		if !d.skeleton(elem) {
			t.Fatalf("%s: no item skeleton for %s", s.name, elem)
		}
		for i := range s.v.Len() {
			v, ok := d.matchItem(elem)
			if !ok {
				t.Fatalf("%s: item %d goes to the lexer: %.120q", s.name, i, s.e[d.lx.pos:])
			}
			if !v.Equal(s.v.Index(i)) {
				t.Fatalf("%s: item %d reads %v, encoded %v", s.name, i, v, s.v.Index(i))
			}
		}
		if end := string(s.e[d.lx.pos:]); !strings.HasPrefix(end, "</") {
			t.Fatalf("%s: %.120q left after the items", s.name, end)
		}
	}
}
