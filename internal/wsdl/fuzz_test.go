package wsdl

import (
	"bytes"
	"encoding/xml"
	"errors"
	"io"
	"testing"
	"unicode/utf8"

	"livedev/internal/soap"
)

// lexerAccepts reports whether internal/soap's lexer, which Parse walks,
// takes the whole text for a well-formed document.
func lexerAccepts(data []byte) bool {
	var sc soap.Scanner
	sc.Reset(data)
	for {
		tag, err := sc.Next()
		if err != nil {
			return false
		}
		if tag == soap.DocEnd {
			return true
		}
	}
}

// decoderAccepts reports whether encoding/xml, which the parent's Parse
// decoded with, tokenizes the whole text.
func decoderAccepts(data []byte) bool {
	dec := xml.NewDecoder(bytes.NewReader(data))
	for {
		if _, err := dec.Token(); err == io.EOF {
			return true
		} else if err != nil {
			return false
		}
	}
}

// shadowsPrimitive reports whether the document declares a complexType
// named like a primitive: the one kind of document on which resolving by
// prefix and resolving by name alone part ways beyond an errNamespace.
func shadowsPrimitive(data []byte) bool {
	var defs xDefinitions
	if xml.Unmarshal(data, &defs) != nil {
		return false
	}
	for _, sch := range defs.Types.Schemas {
		for _, ct := range sch.ComplexTypes {
			if primitives[ct.Name] != nil {
				return true
			}
		}
	}
	return false
}

// writable reports whether every character of the text is one XML can
// carry: the writer replaces the others with U+FFFD, so a name holding one
// does not come back.
func writable(data []byte) bool {
	for len(data) > 0 {
		r, n := utf8.DecodeRune(data)
		if r == utf8.RuneError && n == 1 || r < 0x20 && r != '\t' && r != '\n' && r != '\r' || r == 0xFFFE || r == 0xFFFF {
			return false
		}
		data = data[n:]
	}
	return true
}

// FuzzParse is differential against the parent's parser (oracle_test.go).
// Parse must never panic and must refuse whatever its lexer refuses. Where
// the two tokenizers agree that the text is XML — they are different
// dialects at the edges: encoding/xml checks name characters, UTF-8, "<" in
// attribute values, "--" in comments and the XML declaration, and rewrites
// carriage returns; the lexer does none of that but reads the text to its
// end — Parse and the parent must agree on accept/reject and on the
// Document, but for the tightenings docs/perf.md lists: duplicate names and
// resolution by prefix. What Parse accepts, XML writes back to a document
// Parse resolves to the same interface.
func FuzzParse(f *testing.F) {
	for _, tc := range descriptorCases() {
		if text, err := Generate(tc.desc, tc.endpoint).XML(); err == nil {
			f.Add([]byte(text))
		}
	}
	for _, tc := range parseCases {
		f.Add([]byte(tc.doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gerr := Parse(data)
		if (gerr == nil) != (got != nil) {
			t.Fatalf("Parse returned document %v with error %v", got, gerr)
		}
		if !lexerAccepts(data) {
			if gerr == nil {
				t.Fatalf("Parse accepts text its lexer refuses\n%q", data)
			}
			return
		}
		if gerr == nil && writable(data) {
			if text, err := got.XML(); err == nil {
				again, err := Parse([]byte(text))
				if err != nil {
					t.Fatalf("Parse of the regenerated document: %v\n%q\n%s", err, data, text)
				}
				if again.Descriptor().Hash() != got.Descriptor().Hash() || again.Endpoint != got.Endpoint || again.TargetNS != got.TargetNS {
					t.Fatalf("regenerated document resolves differently\n%q\n%s", data, text)
				}
			}
		}
		if !decoderAccepts(data) || bytes.IndexByte(data, '\r') >= 0 || shadowsPrimitive(data) {
			return
		}
		old, oerr := oracleParse(data)
		switch {
		case gerr != nil && oerr != nil:
		case oerr != nil:
			t.Fatalf("Parse accepts what the parent refused (%v)\n%q", oerr, data)
		case gerr != nil:
			if !errors.Is(gerr, errDuplicate) && !errors.Is(gerr, errNamespace) {
				t.Fatalf("Parse refuses what the parent accepted: %v\n%q", gerr, data)
			}
		case !sameDocument(got, old):
			t.Fatalf("Parse and the parent disagree\n got %+v\n old %+v\n%q", got, old, data)
		}
	})
}
