package jsonb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"livedev/internal/dyn"
)

// h2bDocFormat is internal/h2b's DocFormat (which imports this package):
// the other tag the one document codec writes and reads.
const h2bDocFormat = "livedev-h2b-binding/v1"

// benchDesc is the benchmark's class shape with n methods: n-1 string
// echoes and one echo of a sequence of a three-field struct.
func benchDesc(n int) dyn.InterfaceDescriptor {
	item := dyn.MustStructOf("BenchItem",
		dyn.StructField{Name: "id", Type: dyn.Int32T},
		dyn.StructField{Name: "tag", Type: dyn.StringT},
		dyn.StructField{Name: "score", Type: dyn.Float64T})
	c := dyn.NewClass("BenchJSON")
	for i := 0; i < n; i++ {
		t := dyn.StringT
		if i == n-1 {
			t = dyn.SequenceOf(item)
		}
		if _, err := c.AddMethod(dyn.MethodSpec{
			Name:        fmt.Sprintf("op%08d", i*7919%100000000),
			Params:      []dyn.Param{{Name: "v", Type: t}},
			Result:      t,
			Distributed: true,
		}); err != nil {
			panic(err)
		}
	}
	return c.Interface()
}

const benchEndpoint = "http://127.0.0.1:39802/json/BenchJSON"

// nameFragments are what random names are made of: plain words and every
// kind of character the writer escapes or repairs.
var nameFragments = []string{
	"a", "point", "Grid", "", `q"uote`, `back\slash`, "<&>", "ctl\x00\x01\x1f", "\b\f\n\r\t",
	"sep par ", "bad\xffutf8", "cut\xc3", "é日本😀", "\x7fdel", "/slash", "�",
}

// randomDoc draws an interface document's contents: nested structs (a field
// may hold any struct drawn before its own), sequences of sequences of
// structs, every primitive kind, classes without methods and structs without
// fields, names needing escapes. Names are unique where the reader requires
// it, and void appears only where a server can publish it, so the document
// compiles unless complete is false: then a struct may be missing from the
// table.
func randomDoc(rng *rand.Rand) (desc dyn.InterfaceDescriptor, endpoint, mux string, complete bool) {
	serial := 0
	name := func() string {
		serial++
		return nameFragments[rng.IntN(len(nameFragments))] + "_" + strconv.Itoa(serial)
	}
	var structs []*dyn.Type
	var draw func(depth int, void bool) *dyn.Type
	draw = func(depth int, void bool) *dyn.Type {
		switch k := rng.IntN(11); {
		case k == 9 && depth < 3:
			return dyn.SequenceOf(draw(depth+1, false))
		case k == 10 && len(structs) > 0:
			return structs[rng.IntN(len(structs))]
		case k == 0 && !void, k >= 8:
			return dyn.StringT
		default:
			return dyn.Primitive(dyn.Kind(int(dyn.KindVoid) + k))
		}
	}
	for n := rng.IntN(5); n > 0; n-- {
		fields := make([]dyn.StructField, rng.IntN(4))
		for i := range fields {
			fields[i] = dyn.StructField{Name: name(), Type: draw(0, false)}
		}
		structs = append(structs, dyn.MustStructOf(name(), fields...))
	}
	for n := rng.IntN(7); n > 0; n-- {
		sig := dyn.MethodSig{Name: name(), Result: draw(0, true)}
		for p := rng.IntN(4); p > 0; p-- {
			sig.Params = append(sig.Params, dyn.Param{Name: name(), Type: draw(0, true)})
		}
		desc.Methods = append(desc.Methods, sig)
	}
	// The table in any order: the reader resolves to a fixed point.
	desc.Structs = append([]*dyn.Type(nil), structs...)
	rng.Shuffle(len(desc.Structs), func(i, j int) { desc.Structs[i], desc.Structs[j] = desc.Structs[j], desc.Structs[i] })
	complete = true
	if len(desc.Structs) > 0 && rng.IntN(8) == 0 {
		desc.Structs, complete = desc.Structs[1:], false
	}
	if rng.IntN(4) > 0 {
		desc.ClassName = name()
	}
	endpoint = "http://example/" + name() + "?a=1&b=2"
	if rng.IntN(2) == 0 {
		mux = name()
	}
	return desc, endpoint, mux, complete
}

// hasDuplicateMembers reports whether an object anywhere in data repeats a
// member name. encoding/json merges the later member into the earlier one's
// value where the reader keeps the later whole, so the two read such
// documents differently by design.
func hasDuplicateMembers(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	type frame struct {
		object bool
		seen   map[string]bool
		key    bool // the next token is a member name
	}
	var stack []frame
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		top := len(stack) - 1
		if top >= 0 && stack[top].object && stack[top].key {
			if name, ok := tok.(string); ok {
				if stack[top].seen[name] {
					return true
				}
				stack[top].seen[name], stack[top].key = true, false
				continue
			}
		}
		if top >= 0 && stack[top].object {
			stack[top].key = true
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, frame{object: true, seen: map[string]bool{}, key: true})
		case json.Delim('['):
			stack = append(stack, frame{})
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:top]
			if top == 0 {
				return false
			}
		}
		if top < 0 && len(stack) == 0 {
			return false
		}
	}
}

// isTightening reports whether err is one of the reader's refusals beyond
// what the parent's reader refused.
func isTightening(err error) bool {
	for _, e := range []error{errDuplicate, errUnnamed, errVoid, errCase} {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}

// checkParseDoc runs the reader and the oracle reader over data. The reader
// must not panic; what it accepts must regenerate to a document it reads back
// to the same interface; and unless data repeats a member name, it must agree
// with the oracle on accept/reject and on the descriptor, endpoint and mux,
// but for its own refusals. It returns the reader's verdict.
func checkParseDoc(t testing.TB, data []byte, format string) error {
	t.Helper()
	text := string(data)
	desc, endpoint, mux, err := ParseDocAs(format, text)
	if err == nil {
		again, gerr := GenerateDocAs(format, desc, endpoint, mux)
		if gerr != nil {
			t.Fatalf("regenerating %q: %v", data, gerr)
		}
		d2, e2, m2, perr := ParseDocAs(format, again)
		if perr != nil || !d2.Equal(desc) || e2 != endpoint || m2 != mux {
			t.Fatalf("not a fixed point: %q\nregenerates to\n%s\nwhich reads %v %q %q, %v", data, again, d2.Methods, e2, m2, perr)
		}
	}
	if hasDuplicateMembers(data) {
		return err
	}
	odesc, oendpoint, omux, oerr := oracleParseDocAs(format, text)
	switch {
	case err != nil && oerr != nil:
	case oerr != nil:
		t.Fatalf("the reader accepts what the parent refused (%v)\n%q", oerr, data)
	case err != nil:
		if !isTightening(err) {
			t.Fatalf("the reader refuses what the parent accepted: %v\n%q", err, data)
		}
	case !desc.Equal(odesc) || endpoint != oendpoint || mux != omux:
		t.Fatalf("the reader and the parent disagree on %q\n got %v %v %q %q\nwant %v %v %q %q",
			data, desc.Methods, desc.Structs, endpoint, mux, odesc.Methods, odesc.Structs, oendpoint, omux)
	}
	return err
}

// TestDocMatchesOracle is the property test over random interfaces: the
// writer's bytes are the oracle writer's, and the reader compiles the
// oracle's text exactly as the oracle reader does.
func TestDocMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(26, 2026))
	accepted := 0
	for i := 0; i < 600; i++ {
		desc, endpoint, mux, complete := randomDoc(rng)
		format := DocFormat
		if i%2 == 1 {
			format = h2bDocFormat
		}
		want, err := oracleGenerateDocAs(format, desc, endpoint, mux)
		if err != nil {
			t.Fatal(err)
		}
		got, err := GenerateDocAs(format, desc, endpoint, mux)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("document %d: the writer wrote\n%s\nthe oracle\n%s", i, got, want)
		}
		err = checkParseDoc(t, []byte(want), format)
		if complete && err != nil {
			t.Fatalf("document %d does not compile: %v\n%s", i, err, want)
		}
		if err == nil {
			accepted++
		}
	}
	if accepted < 500 {
		t.Errorf("only %d of 600 random documents compiled", accepted)
	}
	for _, n := range []int{8, 64} {
		desc := benchDesc(n)
		want, _ := oracleGenerateDocAs(DocFormat, desc, benchEndpoint, "")
		if got, _ := GenerateDoc(desc, benchEndpoint); got != want {
			t.Fatalf("%d-method class: the writer wrote\n%s\nthe oracle\n%s", n, got, want)
		}
		if got, endpoint, err := ParseDoc(want); err != nil || !got.Equal(desc) || endpoint != benchEndpoint {
			t.Fatalf("%d-method class reads back as %v %q, %v", n, got.Methods, endpoint, err)
		}
	}
}

// TestParseDocGoldens: the documents the parent commit's h2b binding wrote
// compile under the reader, and the oracle agrees.
func TestParseDocGoldens(t *testing.T) {
	for _, data := range goldenDocs(t) {
		if err := checkParseDoc(t, data, h2bDocFormat); err != nil {
			t.Errorf("%v\n%s", err, data)
		}
	}
}

func goldenDocs(tb testing.TB) [][]byte {
	paths, err := filepath.Glob(filepath.Join("..", "h2b", "testdata", "parent-doc*.json"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no golden documents: %v", err)
	}
	var docs [][]byte
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		docs = append(docs, data)
	}
	return docs
}

// TestParseDocRefuses: documents describing interfaces no server publishes.
// The parent's reader accepted every one; the reader refuses each with an
// error naming the offending member.
func TestParseDocRefuses(t *testing.T) {
	const (
		void  = `{"kind":"void"}`
		int32 = `{"kind":"int32"}`
	)
	method := func(name, params, result string) string {
		return `{"name":"` + name + `","params":[` + params + `],"result":` + result + `}`
	}
	param := func(name, typ string) string { return `{"name":"` + name + `","type":` + typ + `}` }
	doc := func(methods, structs string) string {
		return `{"format":"` + DocFormat + `","class":"C","endpoint":"e","methods":[` + methods + `],"structs":[` + structs + `]}`
	}
	for _, tc := range []struct {
		name, doc string
		want      error
		names     string // what the error must mention
	}{
		{"two methods named f", doc(method("f", "", void)+","+method("f", "", int32), ""), errDuplicate, "method f"},
		{"two parameters named a", doc(method("f", param("a", int32)+","+param("a", `{"kind":"string"}`), void), ""), errDuplicate, "param a"},
		{"two structs named S", doc(method("f", param("s", `{"kind":"struct","name":"S"}`), void),
			`{"name":"S","fields":[`+param("x", int32)+`]},{"name":"S","fields":[`+param("y", int32)+`]}`), errDuplicate, "struct S"},
		{"an empty method name", doc(method("", "", void), ""), errUnnamed, "method 0"},
		{"a sequence of void", doc(method("f", "", `{"kind":"sequence","elem":`+void+`}`), ""), errVoid, "method f result"},
		{"a void struct field", doc(method("f", param("s", `{"kind":"struct","name":"S"}`), void),
			`{"name":"S","fields":[`+param("v", void)+`]}`), errVoid, "struct S field v"},
		{"FORMAT", strings.Replace(doc(method("f", "", void), ""), `"format"`, `"FORMAT"`, 1), errCase, `"FORMAT"`},
		{"Methods", strings.Replace(doc(method("f", "", void), ""), `"methods"`, `"Methods"`, 1), errCase, `"Methods"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, _, err := oracleParseDocAs(DocFormat, tc.doc); err != nil {
				t.Fatalf("the parent refused it too (%v): not a tightening", err)
			}
			_, _, _, err := ParseDocAs(DocFormat, tc.doc)
			if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), tc.names) {
				t.Fatalf("ParseDocAs: %v; want %v naming %s", err, tc.want, tc.names)
			}
		})
	}
}

// TestParseDocGrammar: the reader's own corners, each against the oracle.
func TestParseDocGrammar(t *testing.T) {
	base := `{"format":"` + DocFormat + `","class":"C","endpoint":"e","methods":[{"name":"f","params":[],"result":{"kind":"int32"}}]}`
	for _, tc := range []struct {
		name, doc string
		accept    bool
	}{
		{"base", base, true},
		{"members in any order", `{"methods":[{"result":{"kind":"int32"},"params":[],"name":"f"}],"endpoint":"e","class":"C","format":"` + DocFormat + `"}`, true},
		{"unknown members, validated and skipped", strings.Replace(base, `"class"`, `"x":[{"y":null},1.5e3,"é"],"class"`, 1), true},
		{"a malformed unknown member", strings.Replace(base, `"class"`, `"x":[1,],"class"`, 1), false},
		{"null members", strings.Replace(base, `"class":"C"`, `"class":null,"structs":null,"mux_endpoint":null`, 1), true},
		{"escaped names", strings.Replace(base, `"name":"f"`, `"name":"f 😀"`, 1), true},
		{"lone surrogate", strings.Replace(base, `"name":"f"`, `"name":"f\ud800"`, 1), true},
		{"a string for an object", strings.Replace(base, `"result":{"kind":"int32"}`, `"result":"int32"`, 1), false},
		{"an object for an array", strings.Replace(base, `"params":[]`, `"params":{}`, 1), false},
		{"a number for a string", strings.Replace(base, `"class":"C"`, `"class":1`, 1), false},
		{"trailing data", base + ` {}`, false},
		{"trailing whitespace", base + " \n\t", true},
		{"not an object", `["format"]`, false},
		{"null", `null`, false},
		{"no format", strings.Replace(base, `"format"`, `"form"`, 1), false},
		{"another format", strings.Replace(base, DocFormat, h2bDocFormat, 1), false},
		{"sequence without element", strings.Replace(base, `{"kind":"int32"}`, `{"kind":"sequence","elem":null}`, 1), false},
		{"undefined struct", strings.Replace(base, `{"kind":"int32"}`, `{"kind":"struct","name":"S"}`, 1), false},
		{"unknown kind", strings.Replace(base, `"int32"`, `"int16"`, 1), false},
		{"unterminated", base[:len(base)-1], false},
		{"deep unknown member", strings.Replace(base, `"class"`, `"x":`+strings.Repeat("[", maxDepth)+strings.Repeat("]", maxDepth)+`,"class"`, 1), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := checkParseDoc(t, []byte(tc.doc), DocFormat); (err == nil) != tc.accept {
				t.Fatalf("accept = %v (%v), want %v", err == nil, err, tc.accept)
			}
		})
	}
}

// TestHasDuplicateMembers keeps the fuzz target's exclusion honest.
func TestHasDuplicateMembers(t *testing.T) {
	for doc, want := range map[string]bool{
		`{"a":1,"b":{"a":2}}`:           false,
		`{"a":1,"a":2}`:                 true,
		`{"a":[{"b":1},{"b":1,"b":2}]}`: true,
		`{"a":1,"A":2}`:                 false,
		`{"a":1`:                        false,
	} {
		if got := hasDuplicateMembers([]byte(doc)); got != want {
			t.Errorf("hasDuplicateMembers(%s) = %v", doc, got)
		}
	}
}
