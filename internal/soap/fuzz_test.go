package soap

import (
	"testing"

	"livedev/internal/dyn"
)

// Both targets are differential against the oracle (oracle_test.go): the
// lexer and the typed scanner must never panic, must accept exactly what
// the tree parser and tree decoder accept, and must build equal trees and
// equal values when they do. checkXML, checkRequest and checkResponse are
// the assertions the table tests make, and those tables seed the corpus.

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
	f.Fuzz(func(t *testing.T, params []byte, ti uint8) {
		checkRequest(t, inRequest(string(params)), codecTypes[int(ti)%len(codecTypes)])
	})
}
