package wsdl

// The differential oracle: the document path this package used until the
// one-pass compiler and the append-style writer replaced it, kept verbatim
// (names prefixed with "oracle") so the tests can demand that Parse accepts
// what encoding/xml's reflective decoder accepted and resolves it to the same
// descriptor, and that XML writes the bytes the tree renderer wrote. It
// shares nothing with the code under test but the Document type: the
// element tree is a copy of the one internal/soap rendered with, escaping
// through encoding/xml itself.

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"sort"
	"strings"

	"livedev/internal/dyn"
)

// ---- The parent's parser ----

// XML shapes for decoding; local names only, namespaces are conventional.
type xDefinitions struct {
	XMLName   xml.Name    `xml:"definitions"`
	Name      string      `xml:"name,attr"`
	TargetNS  string      `xml:"targetNamespace,attr"`
	Types     xTypes      `xml:"types"`
	Messages  []xMessage  `xml:"message"`
	PortTypes []xPortType `xml:"portType"`
	Services  []xService  `xml:"service"`
}

type xTypes struct {
	Schemas []xSchema `xml:"schema"`
}

type xSchema struct {
	ComplexTypes []xComplexType `xml:"complexType"`
	SimpleTypes  []xSimpleType  `xml:"simpleType"`
}

type xComplexType struct {
	Name     string    `xml:"name,attr"`
	Sequence xSequence `xml:"sequence"`
}

type xSequence struct {
	Elements []xElement `xml:"element"`
}

type xElement struct {
	Name      string `xml:"name,attr"`
	Type      string `xml:"type,attr"`
	MaxOccurs string `xml:"maxOccurs,attr"`
}

type xSimpleType struct {
	Name string `xml:"name,attr"`
}

type xMessage struct {
	Name  string  `xml:"name,attr"`
	Parts []xPart `xml:"part"`
}

type xPart struct {
	Name string `xml:"name,attr"`
	Type string `xml:"type,attr"`
}

type xPortType struct {
	Name       string       `xml:"name,attr"`
	Operations []xOperation `xml:"operation"`
}

type xOperation struct {
	Name   string  `xml:"name,attr"`
	Input  xIORef  `xml:"input"`
	Output *xIORef `xml:"output"`
}

type xIORef struct {
	Message string `xml:"message,attr"`
}

type xService struct {
	Name  string  `xml:"name,attr"`
	Ports []xPort `xml:"port"`
}

type xPort struct {
	Name    string   `xml:"name,attr"`
	Address xAddress `xml:"address"`
}

type xAddress struct {
	Location string `xml:"location,attr"`
}

// oracleStripPrefix removes a namespace prefix from a QName reference.
func oracleStripPrefix(ref string) string {
	if i := strings.IndexByte(ref, ':'); i >= 0 {
		return ref[i+1:]
	}
	return ref
}

// oracleParse is the parent's Parse.
func oracleParse(data []byte) (*Document, error) {
	var defs xDefinitions
	if err := xml.Unmarshal(data, &defs); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotWSDL, err)
	}
	if defs.XMLName.Local != "definitions" {
		return nil, ErrNotWSDL
	}
	doc := &Document{
		ServiceName: defs.Name,
		TargetNS:    defs.TargetNS,
	}
	if doc.ServiceName == "" && len(defs.Services) > 0 {
		doc.ServiceName = defs.Services[0].Name
	}
	for _, svc := range defs.Services {
		for _, p := range svc.Ports {
			if p.Address.Location != "" {
				doc.Endpoint = p.Address.Location
			}
		}
	}

	// Index schema complex types by name.
	complexTypes := make(map[string]xComplexType)
	for _, sch := range defs.Types.Schemas {
		for _, ct := range sch.ComplexTypes {
			complexTypes[ct.Name] = ct
		}
	}
	r := &oracleTypeResolver{complex: complexTypes, done: make(map[string]*dyn.Type), busy: make(map[string]bool)}

	// Index messages by name.
	messages := make(map[string]xMessage, len(defs.Messages))
	for _, m := range defs.Messages {
		messages[m.Name] = m
	}

	for _, pt := range defs.PortTypes {
		for _, op := range pt.Operations {
			sig := dyn.MethodSig{Name: op.Name, Result: dyn.Void}
			inMsg, ok := messages[oracleStripPrefix(op.Input.Message)]
			if !ok {
				return nil, fmt.Errorf("wsdl: operation %s references missing message %s", op.Name, op.Input.Message)
			}
			for _, part := range inMsg.Parts {
				t, err := r.resolve(part.Type)
				if err != nil {
					return nil, fmt.Errorf("wsdl: operation %s parameter %s: %w", op.Name, part.Name, err)
				}
				sig.Params = append(sig.Params, dyn.Param{Name: part.Name, Type: t})
			}
			if op.Output != nil && op.Output.Message != "" {
				outMsg, ok := messages[oracleStripPrefix(op.Output.Message)]
				if !ok {
					return nil, fmt.Errorf("wsdl: operation %s references missing message %s", op.Name, op.Output.Message)
				}
				switch len(outMsg.Parts) {
				case 0:
					// void result
				case 1:
					t, err := r.resolve(outMsg.Parts[0].Type)
					if err != nil {
						return nil, fmt.Errorf("wsdl: operation %s result: %w", op.Name, err)
					}
					sig.Result = t
				default:
					return nil, fmt.Errorf("wsdl: operation %s has %d output parts; at most 1 supported", op.Name, len(outMsg.Parts))
				}
			}
			doc.Methods = append(doc.Methods, sig)
		}
	}
	sort.Slice(doc.Methods, func(i, j int) bool { return doc.Methods[i].Name < doc.Methods[j].Name })
	return doc, nil
}

// oracleTypeResolver resolves WSDL type references to dyn types.
type oracleTypeResolver struct {
	complex map[string]xComplexType
	done    map[string]*dyn.Type
	busy    map[string]bool
}

func (r *oracleTypeResolver) resolve(ref string) (*dyn.Type, error) {
	name := oracleStripPrefix(ref)
	switch name {
	case "boolean":
		return dyn.Boolean, nil
	case "char":
		return dyn.Char, nil
	case "int":
		return dyn.Int32T, nil
	case "long":
		return dyn.Int64T, nil
	case "float":
		return dyn.Float32T, nil
	case "double":
		return dyn.Float64T, nil
	case "string":
		return dyn.StringT, nil
	}
	if t, ok := r.done[name]; ok {
		return t, nil
	}
	if r.busy[name] {
		return nil, fmt.Errorf("recursive type %s", name)
	}
	ct, ok := r.complex[name]
	if !ok {
		return nil, fmt.Errorf("undeclared type %s", name)
	}
	r.busy[name] = true
	defer delete(r.busy, name)

	// Array form: single element named item with maxOccurs unbounded.
	els := ct.Sequence.Elements
	if len(els) == 1 && els[0].Name == "item" && els[0].MaxOccurs == "unbounded" {
		elem, err := r.resolve(els[0].Type)
		if err != nil {
			return nil, fmt.Errorf("array %s: %w", name, err)
		}
		t := dyn.SequenceOf(elem)
		r.done[name] = t
		return t, nil
	}
	fields := make([]dyn.StructField, 0, len(els))
	for _, el := range els {
		ft, err := r.resolve(el.Type)
		if err != nil {
			return nil, fmt.Errorf("struct %s field %s: %w", name, el.Name, err)
		}
		fields = append(fields, dyn.StructField{Name: el.Name, Type: ft})
	}
	t, err := dyn.StructOf(name, fields...)
	if err != nil {
		return nil, err
	}
	r.done[name] = t
	return t, nil
}

// ---- The parent's writer ----

// oracleNode is internal/soap's generic element as the parent rendered it.
type oracleNode struct {
	Name     string
	Attrs    map[string]string
	Children []*oracleNode
}

func newOracleNode(name string) *oracleNode {
	return &oracleNode{Name: name, Attrs: make(map[string]string)}
}

// Append adds a child element and returns it for chaining.
func (n *oracleNode) Append(child *oracleNode) *oracleNode {
	n.Children = append(n.Children, child)
	return child
}

// render serializes the tree: attributes in sorted order, values escaped,
// an element without children self-closed.
func (n *oracleNode) render() string {
	var b bytes.Buffer
	n.writeXML(&b)
	return b.String()
}

func (n *oracleNode) writeXML(b *bytes.Buffer) {
	b.WriteByte('<')
	b.WriteString(n.Name)
	keys := make([]string, 0, len(n.Attrs))
	for k := range n.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.WriteByte(' ')
		b.WriteString(k)
		b.WriteString(`="`)
		_ = xml.EscapeText(b, []byte(n.Attrs[k])) // a bytes.Buffer does not fail
		b.WriteByte('"')
	}
	if len(n.Children) == 0 {
		b.WriteString("/>")
		return
	}
	b.WriteByte('>')
	for _, c := range n.Children {
		c.writeXML(b)
	}
	b.WriteString("</")
	b.WriteString(n.Name)
	b.WriteByte('>')
}

// oracleXSDTypeName maps a dyn type to its WSDL type reference, registering any
// needed complexType definitions in defs (name → *dyn.Type).
func oracleXSDTypeName(t *dyn.Type, defs map[string]*dyn.Type) (string, error) {
	switch t.Kind() {
	case dyn.KindBoolean:
		return "xsd:boolean", nil
	case dyn.KindChar:
		return "tns:char", nil
	case dyn.KindInt32:
		return "xsd:int", nil
	case dyn.KindInt64:
		return "xsd:long", nil
	case dyn.KindFloat32:
		return "xsd:float", nil
	case dyn.KindFloat64:
		return "xsd:double", nil
	case dyn.KindString:
		return "xsd:string", nil
	case dyn.KindStruct:
		if _, ok := defs[t.Name()]; !ok {
			defs[t.Name()] = t
			for _, f := range t.Fields() {
				if _, err := oracleXSDTypeName(f.Type, defs); err != nil {
					return "", err
				}
			}
		}
		return "tns:" + t.Name(), nil
	case dyn.KindSequence:
		inner, err := oracleXSDTypeName(t.Elem(), defs)
		if err != nil {
			return "", err
		}
		name := oracleArrayTypeName(inner)
		if _, ok := defs[name]; !ok {
			defs[name] = t
		}
		return "tns:" + name, nil
	default:
		return "", fmt.Errorf("wsdl: no mapping for kind %s", t.Kind())
	}
}

// oracleArrayTypeName builds Axis-style array type names from the element's
// qualified reference: "xsd:int" → "ArrayOf_xsd_int", "tns:Message" →
// "ArrayOfMessage", "tns:ArrayOf_xsd_int" → "ArrayOfArrayOf_xsd_int".
func oracleArrayTypeName(elemRef string) string {
	switch {
	case len(elemRef) > 4 && elemRef[:4] == "xsd:":
		return "ArrayOf_xsd_" + elemRef[4:]
	case len(elemRef) > 4 && elemRef[:4] == "tns:":
		return "ArrayOf" + elemRef[4:]
	default:
		return "ArrayOf" + elemRef
	}
}

// oracleXML is the parent's (*Document).XML.
func oracleXML(d *Document) (string, error) {
	defs := make(map[string]*dyn.Type)

	root := newOracleNode("wsdl:definitions")
	root.Attrs["name"] = d.ServiceName
	root.Attrs["targetNamespace"] = d.TargetNS
	root.Attrs["xmlns:wsdl"] = NSWSDL
	root.Attrs["xmlns:soap"] = NSWSDLSOAP
	root.Attrs["xmlns:xsd"] = NSXSD
	root.Attrs["xmlns:tns"] = d.TargetNS

	// Pre-walk every signature to collect type definitions, and remember
	// part type references.
	type partRef struct{ name, ref string }
	type opRefs struct {
		in  []partRef
		out []partRef // empty for void
	}
	ops := make(map[string]opRefs, len(d.Methods))
	usesChar := false
	var walk func(t *dyn.Type) (string, error)
	walk = func(t *dyn.Type) (string, error) {
		ref, err := oracleXSDTypeName(t, defs)
		if err != nil {
			return "", err
		}
		if t.Kind() == dyn.KindChar {
			usesChar = true
		}
		// char may be nested inside structs/sequences too.
		switch t.Kind() {
		case dyn.KindSequence:
			if _, err := walk(t.Elem()); err != nil {
				return "", err
			}
		case dyn.KindStruct:
			for _, f := range t.Fields() {
				if _, err := walk(f.Type); err != nil {
					return "", err
				}
			}
		}
		return ref, nil
	}
	for _, m := range d.Methods {
		var refs opRefs
		for _, p := range m.Params {
			ref, err := walk(p.Type)
			if err != nil {
				return "", fmt.Errorf("wsdl: operation %s parameter %s: %w", m.Name, p.Name, err)
			}
			refs.in = append(refs.in, partRef{p.Name, ref})
		}
		if m.Result.Kind() != dyn.KindVoid {
			ref, err := walk(m.Result)
			if err != nil {
				return "", fmt.Errorf("wsdl: operation %s result: %w", m.Name, err)
			}
			refs.out = append(refs.out, partRef{"return", ref})
		}
		ops[m.Name] = refs
	}

	// <types> schema.
	types := root.Append(newOracleNode("wsdl:types"))
	schema := types.Append(newOracleNode("xsd:schema"))
	schema.Attrs["targetNamespace"] = d.TargetNS
	if usesChar {
		st := schema.Append(newOracleNode("xsd:simpleType"))
		st.Attrs["name"] = "char"
		re := st.Append(newOracleNode("xsd:restriction"))
		re.Attrs["base"] = "xsd:string"
		ln := re.Append(newOracleNode("xsd:length"))
		ln.Attrs["value"] = "1"
	}
	names := make([]string, 0, len(defs))
	for n := range defs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := defs[n]
		ct := schema.Append(newOracleNode("xsd:complexType"))
		ct.Attrs["name"] = n
		seq := ct.Append(newOracleNode("xsd:sequence"))
		if t.Kind() == dyn.KindSequence {
			item := seq.Append(newOracleNode("xsd:element"))
			item.Attrs["name"] = "item"
			ref, err := oracleXSDTypeName(t.Elem(), defs)
			if err != nil {
				return "", err
			}
			item.Attrs["type"] = ref
			item.Attrs["minOccurs"] = "0"
			item.Attrs["maxOccurs"] = "unbounded"
			continue
		}
		for _, f := range t.Fields() {
			el := seq.Append(newOracleNode("xsd:element"))
			el.Attrs["name"] = f.Name
			ref, err := oracleXSDTypeName(f.Type, defs)
			if err != nil {
				return "", err
			}
			el.Attrs["type"] = ref
		}
	}

	// Messages.
	for _, m := range d.Methods {
		refs := ops[m.Name]
		req := root.Append(newOracleNode("wsdl:message"))
		req.Attrs["name"] = m.Name + "Request"
		for _, pr := range refs.in {
			part := req.Append(newOracleNode("wsdl:part"))
			part.Attrs["name"] = pr.name
			part.Attrs["type"] = pr.ref
		}
		resp := root.Append(newOracleNode("wsdl:message"))
		resp.Attrs["name"] = m.Name + "Response"
		for _, pr := range refs.out {
			part := resp.Append(newOracleNode("wsdl:part"))
			part.Attrs["name"] = pr.name
			part.Attrs["type"] = pr.ref
		}
	}

	// PortType.
	pt := root.Append(newOracleNode("wsdl:portType"))
	pt.Attrs["name"] = d.ServiceName + "PortType"
	for _, m := range d.Methods {
		op := pt.Append(newOracleNode("wsdl:operation"))
		op.Attrs["name"] = m.Name
		in := op.Append(newOracleNode("wsdl:input"))
		in.Attrs["message"] = "tns:" + m.Name + "Request"
		out := op.Append(newOracleNode("wsdl:output"))
		out.Attrs["message"] = "tns:" + m.Name + "Response"
	}

	// Binding (rpc/encoded over HTTP).
	binding := root.Append(newOracleNode("wsdl:binding"))
	binding.Attrs["name"] = d.ServiceName + "Binding"
	binding.Attrs["type"] = "tns:" + d.ServiceName + "PortType"
	sb := binding.Append(newOracleNode("soap:binding"))
	sb.Attrs["style"] = "rpc"
	sb.Attrs["transport"] = "http://schemas.xmlsoap.org/soap/http"
	for _, m := range d.Methods {
		op := binding.Append(newOracleNode("wsdl:operation"))
		op.Attrs["name"] = m.Name
		so := op.Append(newOracleNode("soap:operation"))
		so.Attrs["soapAction"] = d.TargetNS + "#" + m.Name
		for _, dir := range []string{"input", "output"} {
			dn := op.Append(newOracleNode("wsdl:" + dir))
			body := dn.Append(newOracleNode("soap:body"))
			body.Attrs["use"] = "encoded"
			body.Attrs["namespace"] = d.TargetNS
			body.Attrs["encodingStyle"] = NSSOAPEnc
		}
	}

	// Service + port + endpoint address.
	svc := root.Append(newOracleNode("wsdl:service"))
	svc.Attrs["name"] = d.ServiceName
	port := svc.Append(newOracleNode("wsdl:port"))
	port.Attrs["name"] = d.ServiceName + "Port"
	port.Attrs["binding"] = "tns:" + d.ServiceName + "Binding"
	addr := port.Append(newOracleNode("soap:address"))
	addr.Attrs["location"] = d.Endpoint

	return `<?xml version="1.0" encoding="UTF-8"?>` + "\n" + root.render(), nil
}
