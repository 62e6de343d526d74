package wsdl

import (
	"fmt"

	"livedev/internal/dyn"
)

// descriptorCase is one interface the generator is held to the oracle and
// to the parent commit's bytes on (testdata/golden/<name>.wsdl, written by
// the parent's own code over this same table).
type descriptorCase struct {
	name     string
	endpoint string
	desc     dyn.InterfaceDescriptor
	// noXML marks a descriptor XML must refuse.
	noXML bool
	// parentMiscompiles marks a document the parent's Parse resolved to
	// another interface than the one it was generated from.
	parentMiscompiles bool
}

func mustClass(name string, specs ...dyn.MethodSpec) dyn.InterfaceDescriptor {
	c := dyn.NewClass(name)
	for _, s := range specs {
		s.Distributed = true
		if _, err := c.AddMethod(s); err != nil {
			panic(fmt.Sprintf("class %s method %s: %v", name, s.Name, err))
		}
	}
	return c.Interface()
}

func field(name string, t *dyn.Type) dyn.StructField { return dyn.StructField{Name: name, Type: t} }

// benchClass is the benchmark's server class: seven string echoes and one
// echo of a sequence of three-member structs.
func benchClass() dyn.InterfaceDescriptor {
	item := dyn.MustStructOf("BenchItem", field("id", dyn.Int32T), field("tag", dyn.StringT), field("score", dyn.Float64T))
	specs := make([]dyn.MethodSpec, 0, 8)
	for i := 0; i < 7; i++ {
		specs = append(specs, dyn.MethodSpec{
			Name:   fmt.Sprintf("opecho%04d", i),
			Params: []dyn.Param{{Name: "v", Type: dyn.StringT}},
			Result: dyn.StringT,
		})
	}
	seq := dyn.SequenceOf(item)
	specs = append(specs, dyn.MethodSpec{Name: "opbulk0000", Params: []dyn.Param{{Name: "v", Type: seq}}, Result: seq})
	return mustClass("BenchSOAP", specs...)
}

func descriptorCases() []descriptorCase {
	message := dyn.MustStructOf("Message", field("from", dyn.StringT), field("body", dyn.StringT), field("id", dyn.Int64T))
	leaf := dyn.MustStructOf("Leaf", field("v", dyn.Int32T), field("mark", dyn.Char))
	branch := dyn.MustStructOf("Branch", field("left", leaf), field("leaves", dyn.SequenceOf(leaf)), field("weight", dyn.Float32T))
	tree := dyn.MustStructOf("Tree", field("root", branch), field("grid", dyn.SequenceOf(dyn.SequenceOf(branch))), field("ok", dyn.Boolean))
	awkward := dyn.MustStructOf(`a<b>&"c'`, field("x&y", dyn.StringT), field(`q"uote`, dyn.Int32T), field("tab\there", dyn.Char))
	named := func(n string) *dyn.Type { return dyn.MustStructOf(n, field("v", dyn.Int32T)) }

	return []descriptorCase{
		{name: "minimal", endpoint: "http://127.0.0.1:1234/Fresh", desc: mustClass("Fresh")},
		{name: "no-endpoint", desc: mustClass("Early", dyn.MethodSpec{Name: "ping"})},
		{name: "void", endpoint: "http://e/V", desc: mustClass("V",
			dyn.MethodSpec{Name: "fire"},
			dyn.MethodSpec{Name: "set", Params: []dyn.Param{{Name: "a", Type: dyn.Int32T}, {Name: "b", Type: dyn.Boolean}}},
			dyn.MethodSpec{Name: "get", Result: dyn.Float64T},
		)},
		{name: "mail", endpoint: "http://127.0.0.1:8080/Mail", desc: mustClass("Mail",
			dyn.MethodSpec{Name: "send", Params: []dyn.Param{{Name: "m", Type: message}}},
			dyn.MethodSpec{Name: "fetch", Params: []dyn.Param{{Name: "user", Type: dyn.StringT}, {Name: "max", Type: dyn.Int32T}}, Result: dyn.SequenceOf(message)},
			dyn.MethodSpec{Name: "count", Result: dyn.Int64T},
			dyn.MethodSpec{Name: "tag", Params: []dyn.Param{{Name: "c", Type: dyn.Char}, {Name: "w", Type: dyn.Float64T}, {Name: "b", Type: dyn.Float32T}, {Name: "on", Type: dyn.Boolean}}, Result: dyn.Char},
			dyn.MethodSpec{Name: "matrix", Result: dyn.SequenceOf(dyn.SequenceOf(dyn.Int32T))},
		)},
		{name: "nested-structs", endpoint: "http://e/Forest", desc: mustClass("Forest",
			dyn.MethodSpec{Name: "plant", Params: []dyn.Param{{Name: "t", Type: tree}}, Result: leaf},
			dyn.MethodSpec{Name: "fell", Params: []dyn.Param{{Name: "b", Type: branch}}},
		)},
		{name: "sequences-of-sequences", endpoint: "http://e/Cube", desc: mustClass("Cube",
			dyn.MethodSpec{Name: "ints", Result: dyn.SequenceOf(dyn.SequenceOf(dyn.SequenceOf(dyn.Int32T)))},
			dyn.MethodSpec{Name: "chars", Params: []dyn.Param{{Name: "c", Type: dyn.SequenceOf(dyn.SequenceOf(dyn.Char))}}},
			dyn.MethodSpec{Name: "every", Params: []dyn.Param{
				{Name: "b", Type: dyn.SequenceOf(dyn.Boolean)}, {Name: "l", Type: dyn.SequenceOf(dyn.Int64T)},
				{Name: "f", Type: dyn.SequenceOf(dyn.Float32T)}, {Name: "d", Type: dyn.SequenceOf(dyn.Float64T)},
				{Name: "s", Type: dyn.SequenceOf(dyn.StringT)}, {Name: "m", Type: dyn.SequenceOf(dyn.SequenceOf(message))},
			}},
		)},
		{name: "char-inside-struct", endpoint: "http://e/Glyph", desc: mustClass("Glyph",
			dyn.MethodSpec{Name: "draw", Params: []dyn.Param{{Name: "l", Type: leaf}}},
		)},
		{name: "char-only-in-sequence", endpoint: "http://e/Text", desc: mustClass("Text",
			dyn.MethodSpec{Name: "runes", Result: dyn.SequenceOf(dyn.Char)},
		)},
		{name: "escaping", endpoint: `http://e/x?a=1&b="2"`, desc: mustClass(`S<v>&Co`,
			dyn.MethodSpec{Name: "a&b", Params: []dyn.Param{{Name: "p<1>", Type: awkward}, {Name: "naïve", Type: dyn.SequenceOf(awkward)}}, Result: awkward},
			dyn.MethodSpec{Name: `say"hi"`, Params: []dyn.Param{{Name: "it's", Type: dyn.StringT}}},
			dyn.MethodSpec{Name: "line\nbreak", Result: dyn.Int32T},
		)},
		{name: "empty-struct", endpoint: "http://e/Unit", desc: mustClass("Unit",
			dyn.MethodSpec{Name: "id", Params: []dyn.Param{{Name: "u", Type: dyn.MustStructOf("Nothing")}}, Result: dyn.SequenceOf(dyn.MustStructOf("Nothing"))},
		)},
		{name: "array-name-taken-by-a-struct", endpoint: "http://e/Clash", desc: mustClass("Clash",
			dyn.MethodSpec{Name: "a", Params: []dyn.Param{{Name: "s", Type: named("ArrayOfPoint")}}, Result: dyn.SequenceOf(named("Point"))},
		), noXML: true},
		{name: "struct-name-taken-by-another-struct", endpoint: "http://e/Clash", desc: mustClass("Clash",
			dyn.MethodSpec{Name: "a", Params: []dyn.Param{{Name: "s", Type: named("Point")}}, Result: dyn.MustStructOf("Point", field("x", dyn.Float64T))},
		), noXML: true},
		{name: "bench", endpoint: "http://127.0.0.1:39802/soap/BenchSOAP", desc: benchClass()},
		{name: "structs-named-like-primitives", endpoint: "http://e/Shadow", desc: mustClass("Shadow",
			dyn.MethodSpec{Name: "s", Params: []dyn.Param{{Name: "a", Type: named("string")}, {Name: "b", Type: dyn.StringT}}, Result: named("int")},
			dyn.MethodSpec{Name: "t", Params: []dyn.Param{{Name: "a", Type: dyn.SequenceOf(named("long"))}, {Name: "b", Type: named("boolean")}}, Result: dyn.SequenceOf(dyn.Int64T)},
			dyn.MethodSpec{Name: "u", Params: []dyn.Param{{Name: "a", Type: named("float")}, {Name: "b", Type: named("double")}}, Result: dyn.Float64T},
		), parentMiscompiles: true},
		{name: "struct-named-char", endpoint: "http://e/C", desc: mustClass("C",
			dyn.MethodSpec{Name: "c", Params: []dyn.Param{{Name: "a", Type: named("char")}}},
		), noXML: true},
		{name: "void-parameter", endpoint: "http://e/W", desc: mustClass("W",
			dyn.MethodSpec{Name: "w", Params: []dyn.Param{{Name: "a", Type: dyn.Void}}},
		), noXML: true},
		{name: "void-member", endpoint: "http://e/X", desc: mustClass("X",
			dyn.MethodSpec{Name: "x", Result: dyn.MustStructOf("Hollow", field("gap", dyn.Void))},
		), noXML: true},
	}
}
