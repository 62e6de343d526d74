// Package wsdl implements the WSDL 1.1 subset the paper's SOAP subsystem
// publishes: an rpc/encoded service description with an XSD schema for
// user-defined complex types (structs and arrays), request/response
// messages per distributed method, a portType, binding, and a service
// element carrying the SOAP endpoint address. Generate and XML are the SDE's
// WSDL Generator component (Figure 4); Parse is the client-side "WSDL
// compiler" (Figure 1). Both are single passes: XML appends the text into a
// pooled buffer, Parse walks internal/soap's lexer.
//
// Type mapping: dyn primitives map to xsd types (int32→xsd:int,
// int64→xsd:long, ...); char maps to the schema simple type tns:char
// (an xsd:string restriction) so that CORBA/SOAP signatures stay
// interconvertible; structs map to named complexTypes with element fields;
// sequences map to complexTypes named ArrayOf… whose single element "item"
// has maxOccurs="unbounded". Array element naming follows the Axis
// convention: ArrayOf_xsd_int, ArrayOfMessage, ArrayOfArrayOf_xsd_int.
package wsdl

import (
	"fmt"
	"slices"
	"sync"

	"livedev/internal/dyn"
	"livedev/internal/soap"
)

// WSDL/XSD namespace URIs.
const (
	NSWSDL     = "http://schemas.xmlsoap.org/wsdl/"
	NSWSDLSOAP = "http://schemas.xmlsoap.org/wsdl/soap/"
	NSXSD      = "http://www.w3.org/2001/XMLSchema"
	NSSOAPEnc  = "http://schemas.xmlsoap.org/soap/encoding/"
)

// Document is an abstract WSDL document: everything the CDE needs to build
// stubs. It is produced either by Generate (server side) or Parse (client
// side).
type Document struct {
	// ServiceName is the service (and class) name.
	ServiceName string
	// TargetNS is the service namespace, "urn:<ServiceName>".
	TargetNS string
	// Endpoint is the SOAP endpoint URL ("" in a minimal document
	// published before the call handler is active).
	Endpoint string
	// Methods are the operations, name-sorted, with resolved dyn types.
	Methods []dyn.MethodSig
}

// Descriptor converts the document back to an interface descriptor whose
// hash is comparable with the server class's descriptor.
func (d *Document) Descriptor() dyn.InterfaceDescriptor {
	desc := dyn.InterfaceDescriptor{ClassName: d.ServiceName, Methods: d.Methods}
	structSet := make(map[string]*dyn.Type)
	for _, m := range d.Methods {
		dyn.CollectStructs(m.Result, structSet)
		for _, p := range m.Params {
			dyn.CollectStructs(p.Type, structSet)
		}
	}
	for _, n := range dyn.SortedStructNames(structSet) {
		desc.Structs = append(desc.Structs, structSet[n])
	}
	return desc
}

// Lookup returns the signature of the named operation.
func (d *Document) Lookup(name string) (dyn.MethodSig, bool) {
	for _, m := range d.Methods {
		if m.Name == name {
			return m, true
		}
	}
	return dyn.MethodSig{}, false
}

// Generate builds the WSDL document for a class's distributed interface
// with the given endpoint URL (may be empty for the minimal document the
// SDE publishes at initialization, which contains the endpoint address but
// no operations — here: operations from desc, endpoint as given).
func Generate(desc dyn.InterfaceDescriptor, endpoint string) *Document {
	methods := make([]dyn.MethodSig, len(desc.Methods))
	copy(methods, desc.Methods)
	return &Document{
		ServiceName: desc.ClassName,
		TargetNS:    "urn:" + desc.ClassName,
		Endpoint:    endpoint,
		Methods:     methods,
	}
}

// declare registers the complexType definitions t needs in defs (name →
// *dyn.Type) and reports whether t holds a char anywhere, which needs the
// char simpleType. A document has one namespace for its types, so a name
// that two different types need — a struct called char, or called what an
// array type is called — cannot be written.
func declare(t *dyn.Type, defs map[string]*dyn.Type) (usesChar bool, err error) {
	name := ""
	switch t.Kind() {
	case dyn.KindChar:
		return true, nil
	case dyn.KindStruct:
		name = t.Name()
		for _, f := range t.Fields() {
			c, err := declare(f.Type, defs)
			if err != nil {
				return false, err
			}
			usesChar = usesChar || c
		}
	case dyn.KindSequence:
		name = arrayName(t.Elem())
		if usesChar, err = declare(t.Elem(), defs); err != nil {
			return false, err
		}
	default:
		if xsdNames[t.Kind()] == "" {
			err = fmt.Errorf("wsdl: no mapping for kind %s", t.Kind())
		}
		return false, err
	}
	if prev, taken := defs[name]; name == "char" || taken && !prev.Equal(t) {
		return false, fmt.Errorf("wsdl: type %s needs the name %s, which another type has", t, name)
	}
	defs[name] = t
	return usesChar, nil
}

// xsdNames are the XML Schema types the scalar kinds other than char map to.
var xsdNames = map[dyn.Kind]string{
	dyn.KindBoolean: "boolean", dyn.KindInt32: "int", dyn.KindInt64: "long",
	dyn.KindFloat32: "float", dyn.KindFloat64: "double", dyn.KindString: "string",
}

// appendTypeRef appends t's WSDL type reference, XML-escaped: an xsd scalar,
// tns:char, a struct's tns:Name or a sequence's tns:ArrayOf… . declare has
// refused every other kind.
func appendTypeRef(buf []byte, t *dyn.Type) []byte {
	switch t.Kind() {
	case dyn.KindChar:
		return append(buf, "tns:char"...)
	case dyn.KindStruct:
		return soap.AppendEscaped(append(buf, "tns:"...), t.Name())
	case dyn.KindSequence:
		return soap.AppendEscaped(append(buf, "tns:"...), arrayName(t.Elem()))
	default:
		return append(append(buf, "xsd:"...), xsdNames[t.Kind()]...)
	}
}

// arrayName builds the Axis-style name of the array type whose elements are
// elem from the element's reference: xsd:int → ArrayOf_xsd_int, tns:Message
// → ArrayOfMessage, tns:ArrayOf_xsd_int → ArrayOfArrayOf_xsd_int.
func arrayName(elem *dyn.Type) string {
	switch elem.Kind() {
	case dyn.KindChar:
		return "ArrayOfchar"
	case dyn.KindStruct:
		return "ArrayOf" + elem.Name()
	case dyn.KindSequence:
		return "ArrayOf" + arrayName(elem.Elem())
	default:
		return "ArrayOf_xsd_" + xsdNames[elem.Kind()]
	}
}

// bufPool recycles XML's buffers; maxPooledBuf bounds what it retains.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 8<<10); return &b }}

const maxPooledBuf = 1 << 20

// put appends its arguments to b: alternately markup, as it stands, and an
// attribute value, escaped.
func put(b []byte, parts ...string) []byte {
	for i, p := range parts {
		if i%2 == 0 {
			b = append(b, p...)
		} else {
			b = soap.AppendEscaped(b, p)
		}
	}
	return b
}

// XML renders the document as WSDL 1.1 text: every element's attributes in
// sorted order, an element without children self-closed.
func (d *Document) XML() (string, error) {
	// Collect the type definitions every signature needs.
	defs := make(map[string]*dyn.Type)
	usesChar := false
	for _, m := range d.Methods {
		for _, p := range m.Params {
			c, err := declare(p.Type, defs)
			if err != nil {
				return "", fmt.Errorf("wsdl: operation %s parameter %s: %w", m.Name, p.Name, err)
			}
			usesChar = usesChar || c
		}
		if m.Result.Kind() != dyn.KindVoid {
			c, err := declare(m.Result, defs)
			if err != nil {
				return "", fmt.Errorf("wsdl: operation %s result: %w", m.Name, err)
			}
			usesChar = usesChar || c
		}
	}
	names := make([]string, 0, len(defs))
	for n := range defs {
		names = append(names, n)
	}
	slices.Sort(names)

	bp := bufPool.Get().(*[]byte)
	b := put((*bp)[:0], `<?xml version="1.0" encoding="UTF-8"?>`+"\n"+
		`<wsdl:definitions name="`, d.ServiceName, `" targetNamespace="`, d.TargetNS,
		`" xmlns:soap="`+NSWSDLSOAP+`" xmlns:tns="`, d.TargetNS,
		`" xmlns:wsdl="`+NSWSDL+`" xmlns:xsd="`+NSXSD+`">`)

	// <types> schema.
	b = put(b, `<wsdl:types><xsd:schema targetNamespace="`, d.TargetNS, `"`)
	if !usesChar && len(names) == 0 {
		b = append(b, `/>`...)
	} else {
		b = append(b, '>')
		if usesChar {
			b = append(b, `<xsd:simpleType name="char"><xsd:restriction base="xsd:string">`+
				`<xsd:length value="1"/></xsd:restriction></xsd:simpleType>`...)
		}
		for _, n := range names {
			b = put(b, `<xsd:complexType name="`, n, `">`)
			switch t := defs[n]; {
			case t.Kind() == dyn.KindSequence:
				b = append(b, `<xsd:sequence><xsd:element maxOccurs="unbounded" minOccurs="0" name="item" type="`...)
				b = append(appendTypeRef(b, t.Elem()), `"/></xsd:sequence>`...)
			case t.NumFields() == 0:
				b = append(b, `<xsd:sequence/>`...)
			default:
				b = append(b, `<xsd:sequence>`...)
				for _, f := range t.Fields() {
					b = appendTypeRef(put(b, `<xsd:element name="`, f.Name, `" type="`), f.Type)
					b = append(b, `"/>`...)
				}
				b = append(b, `</xsd:sequence>`...)
			}
			b = append(b, `</xsd:complexType>`...)
		}
		b = append(b, `</xsd:schema>`...)
	}
	b = append(b, `</wsdl:types>`...)

	// Messages.
	for _, m := range d.Methods {
		if len(m.Params) == 0 {
			b = put(b, `<wsdl:message name="`, m.Name, `Request"/>`)
		} else {
			b = put(b, `<wsdl:message name="`, m.Name, `Request">`)
			for _, p := range m.Params {
				b = appendTypeRef(put(b, `<wsdl:part name="`, p.Name, `" type="`), p.Type)
				b = append(b, `"/>`...)
			}
			b = append(b, `</wsdl:message>`...)
		}
		if m.Result.Kind() == dyn.KindVoid {
			b = put(b, `<wsdl:message name="`, m.Name, `Response"/>`)
		} else {
			b = appendTypeRef(put(b, `<wsdl:message name="`, m.Name, `Response"><wsdl:part name="return" type="`), m.Result)
			b = append(b, `"/></wsdl:message>`...)
		}
	}

	// PortType.
	b = put(b, `<wsdl:portType name="`, d.ServiceName, `PortType"`)
	if len(d.Methods) == 0 {
		b = append(b, `/>`...)
	} else {
		b = append(b, '>')
		for _, m := range d.Methods {
			b = put(b, `<wsdl:operation name="`, m.Name, `"><wsdl:input message="tns:`, m.Name,
				`Request"/><wsdl:output message="tns:`, m.Name, `Response"/></wsdl:operation>`)
		}
		b = append(b, `</wsdl:portType>`...)
	}

	// Binding (rpc/encoded over HTTP).
	b = put(b, `<wsdl:binding name="`, d.ServiceName, `Binding" type="tns:`, d.ServiceName,
		`PortType"><soap:binding style="rpc" transport="http://schemas.xmlsoap.org/soap/http"/>`)
	const body = `<soap:body encodingStyle="` + NSSOAPEnc + `" namespace="`
	for _, m := range d.Methods {
		b = put(b, `<wsdl:operation name="`, m.Name, `"><soap:operation soapAction="`, d.TargetNS, `#`, m.Name,
			`"/><wsdl:input>`+body, d.TargetNS, `" use="encoded"/></wsdl:input><wsdl:output>`+body, d.TargetNS,
			`" use="encoded"/></wsdl:output></wsdl:operation>`)
	}
	b = append(b, `</wsdl:binding>`...)

	// Service + port + endpoint address.
	b = put(b, `<wsdl:service name="`, d.ServiceName, `"><wsdl:port binding="tns:`, d.ServiceName,
		`Binding" name="`, d.ServiceName, `Port"><soap:address location="`, d.Endpoint,
		`"/></wsdl:port></wsdl:service></wsdl:definitions>`)

	text := string(b)
	if cap(b) <= maxPooledBuf {
		*bp = b[:0]
		bufPool.Put(bp)
	}
	return text, nil
}
