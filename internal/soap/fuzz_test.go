package soap

import (
	"strings"
	"testing"

	"livedev/internal/dyn"
)

// Both targets are differential against the oracle (oracle_test.go): the
// lexer and the typed scanner must never panic, must accept exactly what
// the tree parser and tree decoder accept, and must build equal trees and
// equal values when they do. checkXML, checkRequest and checkResponse are
// the assertions the table tests make, and those tables seed the corpus,
// with what BuildRequest writes for each sequence type of codecTypes: items
// the decoder reads through its item skeleton, and mutate into ones it
// hands back to the lexer.

// FuzzParseRequest feeds whole documents to ParseXML, ParseRequest and
// ParseResponse, and decodes whatever elements they hand out.
func FuzzParseRequest(f *testing.F) {
	for _, tc := range envelopeCases {
		f.Add([]byte(tc.doc))
	}
	for _, tc := range elementCases {
		f.Add(inRequest(tc.xml))
	}
	bulk, err := BuildRequest("urn:Bench", "echoAll", []NamedValue{{Name: "v", Value: dyn.MustSequenceValue(bulkItem, bulkValue().Elems()[:4]...)}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(bulk))
	for _, b := range builtSequences(f) {
		f.Add([]byte(b.req))
	}
	types := []*dyn.Type{dyn.Int32T, dyn.StringT, pairType, dyn.SequenceOf(bulkItem)}
	f.Fuzz(func(t *testing.T, doc []byte) {
		checkXML(t, doc)
		checkRequest(t, doc, types...)
		checkResponse(t, doc, types...)
	})
}

// FuzzDecodeValue feeds parameter elements, framed as BuildRequest frames
// them, to DecodeValue against one of codecTypes.
func FuzzDecodeValue(f *testing.F) {
	typeIndex := func(t *dyn.Type) uint8 {
		for i, ct := range codecTypes {
			if ct.Equal(t) {
				return uint8(i)
			}
		}
		f.Fatalf("%s is not one of codecTypes", t)
		return 0
	}
	for _, tc := range elementCases {
		f.Add([]byte(tc.xml), typeIndex(tc.typ))
	}
	for _, b := range builtSequences(f) {
		f.Add([]byte(b.arg), b.ti)
	}
	f.Fuzz(func(t *testing.T, params []byte, ti uint8) {
		checkRequest(t, inRequest(string(params)), codecTypes[int(ti)%len(codecTypes)])
	})
}

// builtSequence is the request BuildRequest writes for a sample of
// codecTypes[ti], a sequence type, and the parameter element in it.
type builtSequence struct {
	ti       uint8
	req, arg string
}

func builtSequences(f *testing.F) []builtSequence {
	var built []builtSequence
	for i, typ := range codecTypes {
		if typ.Kind() != dyn.KindSequence {
			continue
		}
		req, err := BuildRequest("urn:T", "call", []NamedValue{{Name: "p", Value: sample(typ)}})
		if err != nil {
			f.Fatal(err)
		}
		arg, head := strings.CutPrefix(req, envPrefix+`<m:call xmlns:m="urn:T">`)
		arg, tail := strings.CutSuffix(arg, `</m:call>`+envSuffix)
		if !head || !tail {
			f.Fatalf("%s: request framed unlike inRequest: %s", typ, req)
		}
		built = append(built, builtSequence{uint8(i), req, arg})
	}
	return built
}
