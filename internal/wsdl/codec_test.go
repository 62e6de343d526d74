package wsdl

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sameDocument reports whether two parses agree on everything a Document
// holds.
func sameDocument(a, b *Document) bool {
	if a.ServiceName != b.ServiceName || a.TargetNS != b.TargetNS || a.Endpoint != b.Endpoint || len(a.Methods) != len(b.Methods) {
		return false
	}
	for i := range a.Methods {
		if a.Methods[i].String() != b.Methods[i].String() {
			return false
		}
	}
	return a.Descriptor().Hash() == b.Descriptor().Hash()
}

// TestXMLAgainstOracle holds the append-style writer to the tree renderer it
// replaced and to the bytes the parent commit wrote, and the one-pass
// compiler to the interface each document was generated from.
func TestXMLAgainstOracle(t *testing.T) {
	for _, tc := range descriptorCases() {
		t.Run(tc.name, func(t *testing.T) {
			doc := Generate(tc.desc, tc.endpoint)
			got, err := doc.XML()
			if tc.noXML {
				if err == nil {
					t.Fatalf("XML accepted the descriptor:\n%s", got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracleXML(doc)
			if err != nil {
				t.Fatalf("oracle refused: %v", err)
			}
			if got != want {
				t.Fatalf("XML differs from the tree renderer's\n got %s\nwant %s", got, want)
			}
			golden, err := os.ReadFile(filepath.Join("testdata", "golden", tc.name+".wsdl"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(golden) {
				t.Fatalf("XML differs from the parent commit's\n got %s\nwant %s", got, golden)
			}

			parsed, err := Parse([]byte(got))
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			if parsed.Descriptor().Hash() != tc.desc.Hash() {
				t.Errorf("Parse does not return the generated interface\n got %v\nwant %v", parsed.Methods, tc.desc.Methods)
			}
			if parsed.ServiceName != tc.desc.ClassName || parsed.TargetNS != doc.TargetNS || parsed.Endpoint != tc.endpoint {
				t.Errorf("Parse identity = %q %q %q", parsed.ServiceName, parsed.TargetNS, parsed.Endpoint)
			}
			old, err := oracleParse([]byte(got))
			if err != nil {
				t.Fatalf("oracle Parse: %v", err)
			}
			if same := sameDocument(parsed, old); same == tc.parentMiscompiles {
				t.Errorf("Parse agrees with the parent's: %v, want %v\n got %v\n old %v", same, !tc.parentMiscompiles, parsed.Methods, old.Methods)
			}
		})
	}
}

// parseCase is one hand-written document, run through Parse and the
// parent's parser. A case whose tightening is set is one the parent
// accepted and Parse refuses by design (docs/perf.md lists them); everywhere
// else the two must agree on accept/reject and on the Document.
type parseCase struct {
	name       string
	doc        string
	tightening error // errDuplicate, errNamespace, ErrNotWSDL (malformed past the root), or nil
	// differs marks a document both accept and resolve differently, by the
	// prefix rule.
	differs bool
}

const (
	defsOpen  = `<definitions name="S" targetNamespace="urn:S" xmlns="http://schemas.xmlsoap.org/wsdl/" xmlns:tns="urn:S" xmlns:xsd="http://www.w3.org/2001/XMLSchema">`
	fMessages = `<message name="fRequest"><part name="x" type="xsd:int"/></message><message name="fResponse"/>`
	fPortType = `<portType name="P"><operation name="f"><input message="tns:fRequest"/><output message="tns:fResponse"/></operation></portType>`
)

// oneType is a document whose operation f takes one parameter of the given
// type, with the given schema content.
func oneType(schema, typ string) string {
	return defsOpen + `<types><xsd:schema>` + schema + `</xsd:schema></types>` +
		`<message name="fRequest"><part name="x" type="` + typ + `"/></message><message name="fResponse"/>` + fPortType + `</definitions>`
}

const structN = `<xsd:complexType name="N"><xsd:sequence><xsd:element name="v" type="xsd:int"/></xsd:sequence></xsd:complexType>`

var parseCases = []parseCase{
	// TestParseErrors' documents.
	{name: "garbage", doc: "not xml at all <"},
	{name: "other root", doc: "<other/>"},
	{name: "missing message", doc: `<definitions name="S" targetNamespace="urn:S" xmlns="http://schemas.xmlsoap.org/wsdl/">
	  <portType name="P"><operation name="f"><input message="tns:ghost"/></operation></portType>
	</definitions>`},
	{name: "undeclared type", doc: `<definitions name="S" targetNamespace="urn:S" xmlns="http://schemas.xmlsoap.org/wsdl/">
	  <message name="fRequest"><part name="x" type="tns:Ghost"/></message>
	  <message name="fResponse"/>
	  <portType name="P"><operation name="f"><input message="tns:fRequest"/><output message="tns:fResponse"/></operation></portType>
	</definitions>`},
	{name: "two output parts", doc: `<definitions name="S" targetNamespace="urn:S" xmlns="http://schemas.xmlsoap.org/wsdl/">
	  <message name="fRequest"/>
	  <message name="fResponse"><part name="a" type="xsd:int"/><part name="b" type="xsd:int"/></message>
	  <portType name="P"><operation name="f"><input message="tns:fRequest"/><output message="tns:fResponse"/></operation></portType>
	</definitions>`},
	{name: "recursive type", doc: `<definitions name="S" targetNamespace="urn:S" xmlns="http://schemas.xmlsoap.org/wsdl/" xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <types><xsd:schema><xsd:complexType name="N"><xsd:sequence><xsd:element name="next" type="tns:N"/></xsd:sequence></xsd:complexType></xsd:schema></types>
	  <message name="fRequest"><part name="x" type="tns:N"/></message>
	  <message name="fResponse"/>
	  <portType name="P"><operation name="f"><input message="tns:fRequest"/><output message="tns:fResponse"/></operation></portType>
	</definitions>`},

	// What is read, and where.
	{name: "empty definitions", doc: `<definitions/>`},
	{name: "prefixes everywhere", doc: `<w:definitions w:name="S" w:targetNamespace="urn:S" xmlns:w="http://schemas.xmlsoap.org/wsdl/">
	  <w:message w:name="fRequest"><w:part w:name="x" w:type="int"/></w:message>
	  <w:portType><w:operation w:name="f"><w:input w:message="fRequest"/></w:operation></w:portType></w:definitions>`},
	{name: "name from the first service", doc: `<definitions targetNamespace="urn:S"><service name="First"/><service name="Second"/></definitions>`},
	{name: "first service unnamed", doc: `<definitions><service/><service name="Second"/></definitions>`},
	{name: "last located port wins", doc: `<definitions name="S"><service name="S">
	  <port name="a"><address location="http://a/"/></port>
	  <port name="b"><address location="http://b/"/><address/></port>
	  <port name="c"><address location="http://c/"/><address location=""/></port>
	  <port name="d"/></service><service><port><address location=""/></port></service></definitions>`},
	{name: "address outside a port", doc: `<definitions name="S"><service><address location="http://x/"/></service><address location="http://y/"/></definitions>`},
	{name: "elements read only where they belong", doc: defsOpen +
		`<wrapper>` + fMessages + fPortType + `</wrapper>` +
		`<types><xsd:complexType name="N"/><other><xsd:schema>` + structN + `</xsd:schema></other></types>` +
		`<portType><wrapper><operation name="g"/></wrapper></portType></definitions>`},
	{name: "complexContent is not a sequence", doc: oneType(
		`<xsd:complexType name="N"><xsd:complexContent><xsd:sequence><xsd:element name="v" type="xsd:int"/></xsd:sequence></xsd:complexContent></xsd:complexType>`, "tns:N")},
	{name: "sequences accumulate", doc: oneType(
		`<xsd:complexType name="N"><xsd:sequence><xsd:element name="a" type="xsd:int"/></xsd:sequence><xsd:annotation/>`+
			`<xsd:sequence><xsd:element name="b" type="xsd:long"/></xsd:sequence></xsd:complexType>`, "tns:N")},
	{name: "types and schemas accumulate", doc: defsOpen +
		`<types><xsd:schema>` + structN + `</xsd:schema><xsd:schema><xsd:complexType name="M"><xsd:sequence><xsd:element name="n" type="tns:N"/></xsd:sequence></xsd:complexType></xsd:schema></types>` +
		`<types><xsd:schema><xsd:complexType name="ArrayOfM"><xsd:sequence><xsd:element name="item" type="tns:M" maxOccurs="unbounded"/></xsd:sequence></xsd:complexType></xsd:schema></types>` +
		`<message name="fRequest"><part name="x" type="tns:ArrayOfM"/></message><message name="fResponse"><part name="return" type="tns:M"/></message>` + fPortType + `</definitions>`},
	{name: "array needs item and unbounded", doc: oneType(
		`<xsd:complexType name="A"><xsd:sequence><xsd:element name="item" type="xsd:int" maxOccurs="2"/></xsd:sequence></xsd:complexType>`+
			`<xsd:complexType name="B"><xsd:sequence><xsd:element name="thing" type="tns:A" maxOccurs="unbounded"/></xsd:sequence></xsd:complexType>`, "tns:B")},
	{name: "operations of every portType", doc: defsOpen + fMessages +
		`<portType><operation name="b"><input message="fRequest"/></operation></portType>` +
		`<portType><operation name="a"><input message="tns:fRequest"/><output message="fResponse"/></operation></portType></definitions>`},
	{name: "later input replaces, bare input keeps", doc: defsOpen + fMessages +
		`<portType><operation name="f"><input message="ghost"/><input message="tns:fRequest"/><input/>` +
		`<output message="tns:fResponse"/><output message=""/></operation></portType></definitions>`},
	{name: "no input is the unnamed message", doc: defsOpen + `<message><part name="x" type="xsd:int"/></message>` +
		`<portType><operation name="f"/></portType></definitions>`},
	{name: "no input and no unnamed message", doc: defsOpen + `<portType><operation name="f"/></portType></definitions>`},
	{name: "last of duplicate attributes", doc: `<definitions name="A" name="S"><message name="x" name="fRequest"><part name="p" type="ghost" type="xsd:int"/></message>` +
		`<portType><operation name="f"><input message="fRequest"/></operation></portType></definitions>`},
	{name: "a namespace declaration named like an attribute", doc: `<definitions xmlns:name="urn:odd"/>`},
	{name: "references in values", doc: `<definitions name="a&amp;b" targetNamespace="urn:&#x41;">` +
		`<message name="f&#82;equest"><part name="&lt;p&gt;" type="xsd:&#105;nt"/></message>` +
		`<portType><operation name="&quot;f&apos;"><input message="tns:fRequest"/></operation></portType>` +
		`<service><port><address location="http://h/?a=1&amp;b=2"/></port></service></definitions>`},
	{name: "single quotes, spaces, comments, CDATA, PIs", doc: "<?xml version='1.0'?><!-- c --><definitions name = 'S'\n\ttargetNamespace\n=\n'urn:S' >text<![CDATA[<message name=\"no\"/>]]>" +
		`<!-- <message name="no"/> --><?pi <message/> ?><message name='fRequest' /><portType><operation name="f"><input message='fRequest'/></operation></portType></definitions>` + "\n"},
	{name: "unnamed struct", doc: oneType(`<xsd:complexType><xsd:sequence><xsd:element name="v" type="xsd:int"/></xsd:sequence></xsd:complexType>`, "tns:")},
	{name: "unnamed array", doc: oneType(`<xsd:complexType><xsd:sequence><xsd:element name="item" type="xsd:int" maxOccurs="unbounded"/></xsd:sequence></xsd:complexType>`, "tns:")},
	{name: "duplicate struct members", doc: oneType(`<xsd:complexType name="N"><xsd:sequence><xsd:element name="v" type="xsd:int"/><xsd:element name="v" type="xsd:int"/></xsd:sequence></xsd:complexType>`, "tns:N")},
	{name: "unclosed", doc: defsOpen + fMessages},
	{name: "mismatched end tag", doc: defsOpen + `<message name="m"></part></definitions>`},
	{name: "bad reference", doc: `<definitions name="&nope;"/>`},

	// Resolution by prefix: what stays as the parent had it.
	{name: "unbound prefixes go by name", doc: `<definitions name="S" targetNamespace="urn:S"><types><schema>` + structN + `</schema></types>` +
		`<message name="fRequest"><part name="a" type="any:int"/><part name="b" type="string"/><part name="c" type="other:N"/><part name="d" type="N"/><part name="e" type="x:char"/></message>` +
		`<portType><operation name="f"><input message="fRequest"/></operation></portType></definitions>`},
	{name: "a foreign namespace goes by name", doc: defsOpen + `<types><xsd:schema xmlns:t="urn:types">` + structN + `</xsd:schema></types>` +
		`<message name="fRequest" xmlns:t="urn:types"><part name="a" type="t:N"/><part name="b" type="t:long"/></message>` +
		`<portType><operation name="f"><input message="fRequest"/></operation></portType></definitions>`},
	{name: "char under either known prefix", doc: oneType("", "tns:char")},
	{name: "xsd char", doc: oneType("", "xsd:char")},
	{name: "default namespace is XML Schema", doc: defsOpen + `<types><schema xmlns="http://www.w3.org/2001/XMLSchema">` +
		`<complexType name="N"><sequence><element name="v" type="int"/></sequence></complexType></schema></types>` +
		`<message name="fRequest"><part name="x" type="tns:N"/></message><message name="fResponse"/>` + fPortType + `</definitions>`},
	{name: "a declaration ends with its element", doc: defsOpen +
		`<types><s:schema xmlns:s="http://www.w3.org/2001/XMLSchema" xmlns:tns="urn:elsewhere">` + structN + `</s:schema></types>` +
		`<message name="fRequest"><part name="x" type="tns:N"/><part name="y" type="s:N"/></message>` +
		`<portType><operation name="f"><input message="fRequest"/></operation></portType></definitions>`},

	// Resolution by prefix: the tightenings.
	{name: "struct named string under the target prefix", differs: true, doc: oneType(
		`<xsd:complexType name="string"><xsd:sequence><xsd:element name="v" type="xsd:string"/></xsd:sequence></xsd:complexType>`, "tns:string")},
	{name: "struct named char under the target prefix", differs: true, doc: oneType(
		`<xsd:complexType name="char"><xsd:sequence><xsd:element name="v" type="tns:int"/></xsd:sequence></xsd:complexType>`+
			`<xsd:complexType name="int"><xsd:sequence/></xsd:complexType>`, "tns:char")},
	{name: "rebound prefixes", differs: true, doc: defsOpen + `<types><xsd:schema>` +
		`<xsd:complexType name="long"><xsd:sequence><xsd:element name="v" type="tns:long" xmlns:tns="http://www.w3.org/2001/XMLSchema"/></xsd:sequence></xsd:complexType>` +
		`</xsd:schema></types><message name="fRequest"><part name="x" type="xsd:long" xmlns:xsd="urn:S"/></message><message name="fResponse"/>` + fPortType + `</definitions>`},
	{name: "primitive under the target prefix", tightening: errNamespace, doc: oneType("", "tns:int")},
	{name: "struct under the XML Schema prefix", tightening: errNamespace, doc: oneType(structN, "xsd:N")},
	{name: "default namespace is the target", tightening: errNamespace, doc: `<definitions name="S" targetNamespace="urn:S" xmlns="urn:S">` +
		`<message name="fRequest"><part name="x" type="double"/></message><portType><operation name="f"><input message="fRequest"/></operation></portType></definitions>`},

	// Duplicate names.
	{name: "two operations of one name", tightening: errDuplicate, doc: defsOpen + fMessages +
		`<portType name="P"><operation name="f"><input message="tns:fRequest"/></operation><operation name="f"><input message="tns:fRequest"/></operation></portType></definitions>`},
	{name: "one operation name in two portTypes", tightening: errDuplicate, doc: defsOpen + fMessages + fPortType + fPortType + `</definitions>`},
	{name: "two messages of one name", tightening: errDuplicate, doc: defsOpen + fMessages + `<message name="fRequest"/>` + fPortType + `</definitions>`},
	{name: "two unused messages of one name", tightening: errDuplicate, doc: defsOpen + `<message name="m"/><message name="m"/></definitions>`},
	{name: "two complexTypes of one name", tightening: errDuplicate, doc: oneType(structN+structN, "xsd:int")},
	{name: "one complexType name in two schemas", tightening: errDuplicate, doc: defsOpen +
		`<types><xsd:schema>` + structN + `</xsd:schema><xsd:schema>` + structN + `</xsd:schema></types>` + fMessages + fPortType + `</definitions>`},

	// The whole text is validated: the parent stopped at the root's end tag.
	{name: "malformed after the root", tightening: ErrNotWSDL, doc: defsOpen + fMessages + fPortType + `</definitions><unclosed`},
	{name: "second root", tightening: ErrNotWSDL, doc: `<definitions name="S"/><definitions name="T"/>`},
	{name: "stray end tag after the root", tightening: ErrNotWSDL, doc: `<definitions name="S"/></definitions>`},
	{name: "text and comments after the root", doc: `<definitions name="S"/> trailing <!-- fine -->` + "\n"},
}

// checkParse holds Parse to the parent's parser on one document, allowing
// the tightening given, and returns what Parse said.
func checkParse(t *testing.T, data []byte, tightening error, differs bool) (*Document, error) {
	t.Helper()
	got, gerr := Parse(data)
	old, oerr := oracleParse(data)
	if (gerr == nil) != (got != nil) {
		t.Fatalf("Parse returned document %v with error %v", got, gerr)
	}
	switch {
	case gerr != nil && oerr != nil:
	case oerr != nil:
		t.Fatalf("Parse accepts what the parent refused (%v)\n%q", oerr, data)
	case gerr != nil:
		if tightening == nil || !errors.Is(gerr, tightening) {
			t.Fatalf("Parse refuses what the parent accepted: %v (allowed here: %v)\n%q", gerr, tightening, data)
		}
	case tightening != nil:
		t.Fatalf("Parse accepts a document it is meant to refuse with %v\n%q", tightening, data)
	case sameDocument(got, old) == differs:
		t.Fatalf("Parse agrees with the parent's: %v, want %v\n got %+v\n old %+v\n%q", !differs, differs, got, old, data)
	}
	return got, gerr
}

func TestParseAgainstOracle(t *testing.T) {
	for _, tc := range parseCases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := checkParse(t, []byte(tc.doc), tc.tightening, tc.differs)
			if err != nil && !strings.HasPrefix(err.Error(), "wsdl: ") {
				t.Errorf("error %q does not name the package", err)
			}
			if err == nil {
				// What Parse returns is what XML can write and Parse read again.
				text, err := got.XML()
				if err != nil {
					return // e.g. a struct named char: XML refuses it
				}
				again, err := Parse([]byte(text))
				if err != nil {
					t.Fatalf("Parse of the regenerated document: %v\n%s", err, text)
				}
				if again.Descriptor().Hash() != got.Descriptor().Hash() {
					t.Errorf("regenerated document resolves differently\n got %v\nwant %v", again.Methods, got.Methods)
				}
			}
		})
	}
}
