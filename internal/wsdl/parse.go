package wsdl

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"

	"livedev/internal/dyn"
	"livedev/internal/soap"
)

// Parse errors.
var (
	ErrNotWSDL = errors.New("wsdl: not a WSDL document")

	errDuplicate = errors.New("declared twice")
	errNamespace = errors.New("not declared in the namespace its prefix is bound to")
)

// kind is an element the compiler reads, identified by its local name and
// its parent's kind: anything else is passed over with all it contains.
type kind uint8

const (
	kNone kind = iota
	kDocument
	kDefinitions
	kTypes
	kSchema
	kComplexType
	kSequence
	kElement
	kMessage
	kPart
	kPortType
	kOperation
	kInput
	kOutput
	kService
	kPort
	kAddress
)

// grammar is what the compiler reads: these children of these elements, by
// local name whatever the prefix.
var grammar = [...]struct {
	parent kind
	name   string
	child  kind
}{
	{kDocument, "definitions", kDefinitions},
	{kDefinitions, "types", kTypes},
	{kTypes, "schema", kSchema},
	{kSchema, "complexType", kComplexType},
	{kComplexType, "sequence", kSequence},
	{kSequence, "element", kElement},
	{kDefinitions, "message", kMessage},
	{kMessage, "part", kPart},
	{kDefinitions, "portType", kPortType},
	{kPortType, "operation", kOperation},
	{kOperation, "input", kInput},
	{kOperation, "output", kOutput},
	{kDefinitions, "service", kService},
	{kService, "port", kPort},
	{kPort, "address", kAddress},
}

func childKind(parent kind, name []byte) kind {
	if parent != kNone {
		for _, g := range grammar {
			if g.parent == parent && g.name == string(name) {
				return g.child
			}
		}
	}
	return kNone
}

// localName strips a namespace prefix from an element or attribute name.
// A name that starts or ends with its colon has none.
func localName(name []byte) []byte {
	if i := bytes.IndexByte(name, ':'); i > 0 && i < len(name)-1 {
		return name[i+1:]
	}
	return name
}

// cutPrefix splits a QName reference at its first colon.
func cutPrefix(ref []byte) (prefix, name []byte) {
	if i := bytes.IndexByte(ref, ':'); i >= 0 {
		return ref[:i], ref[i+1:]
	}
	return nil, ref
}

// space is what a type reference's prefix is bound to, as far as resolving
// the reference cares.
type space uint8

const (
	spaceOther  space = iota // unbound, or a namespace this compiler does not know
	spaceXSD                 // XML Schema: the primitives
	spaceTarget              // the document's target namespace: its declared types
)

// typeRef is a reference to a type: its local name, aliasing the document,
// and its prefix's binding where the reference stands.
type typeRef struct {
	space space
	name  []byte
}

type (
	// member is an element of a complexType or a part of a message.
	member struct {
		name      string
		ref       typeRef
		unbounded bool // maxOccurs="unbounded"
	}
	// named is a complexType, with the elements of every sequence directly
	// under it, or a message, with its parts.
	named struct {
		name    string
		members []member
	}
	operation struct {
		name    string
		in, out []byte // message names, prefix stripped, aliasing the document; empty for none
	}
)

// compiler holds what one pass over a document collects. The attribute
// fields are the current start tag's, nil for an attribute it does not have.
type compiler struct {
	sc  soap.Scanner
	doc *Document
	// ns are the namespace declarations in scope, innermost last.
	ns []nsDecl

	name, typ, maxOccurs, message, location, targetNamespace []byte

	complexTypes []named
	messages     []named
	operations   []operation
	services     int
	firstService string
	endpoint     string
	portLocation string // of the port being read
}

type nsDecl struct {
	prefix, uri []byte
	depth       int
}

// readAttrs reads the start tag at depth: the attributes the compiler
// knows, by local name with the last of duplicates kept, and the namespace
// declarations, which replace those of elements already left.
func (c *compiler) readAttrs(depth int) {
	for len(c.ns) > 0 && c.ns[len(c.ns)-1].depth >= depth {
		c.ns = c.ns[:len(c.ns)-1]
	}
	c.name, c.typ, c.maxOccurs, c.message, c.location, c.targetNamespace = nil, nil, nil, nil, nil, nil
	for {
		name, value, ok := c.sc.NextAttr()
		if !ok {
			return
		}
		if string(name) == "xmlns" {
			c.ns = append(c.ns, nsDecl{nil, value, depth})
		} else if prefix, ok := bytes.CutPrefix(name, []byte("xmlns:")); ok {
			c.ns = append(c.ns, nsDecl{prefix, value, depth})
		}
		switch string(localName(name)) {
		case "name":
			c.name = value
		case "type":
			c.typ = value
		case "maxOccurs":
			c.maxOccurs = value
		case "message":
			c.message = value
		case "location":
			c.location = value
		case "targetNamespace":
			c.targetNamespace = value
		}
	}
}

// member reads the current tag as an element or a part, classifying the
// prefix of its type attribute against the declarations in scope.
func (c *compiler) member() member {
	prefix, name := cutPrefix(c.typ)
	m := member{name: string(c.name), ref: typeRef{name: name}, unbounded: string(c.maxOccurs) == "unbounded"}
	for i := len(c.ns) - 1; i >= 0; i-- {
		if d := &c.ns[i]; bytes.Equal(d.prefix, prefix) {
			switch {
			case string(d.uri) == NSXSD:
				m.ref.space = spaceXSD
			case string(d.uri) == c.doc.TargetNS && c.doc.TargetNS != "":
				m.ref.space = spaceTarget
			}
			break
		}
	}
	return m
}

// closePort settles the port just read: a port whose last address has a
// location is the service's endpoint, and a later one replaces it.
func (c *compiler) closePort() {
	if c.portLocation != "" {
		c.endpoint = c.portLocation
	}
	c.portLocation = ""
}

// Parse reads a WSDL document and resolves every operation's signature to
// dyn types — the client-side WSDL compiler of Figure 1. It is one pass
// over the text: definitions → types/schema/complexType/sequence/element,
// message/part, portType/operation/input|output and service/port/address
// are read where they stand, the binding section and everything else is
// validated and passed over.
func Parse(data []byte) (*Document, error) {
	doc := new(Document)
	c := &compiler{doc: doc}
	c.sc.Reset(data)
	kinds := make([]kind, 1, 8) // kinds[d] is the kind of the open element at depth d
	kinds[0] = kDocument
	for {
		tag, err := c.sc.Next()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrNotWSDL, err)
		}
		if tag == soap.DocEnd {
			break
		}
		if tag != soap.StartTag {
			continue
		}
		depth := c.sc.Depth()
		k := childKind(kinds[depth-1], localName(c.sc.Name()))
		kinds = append(kinds[:depth], k)
		if k == kNone {
			if depth == 1 {
				return nil, fmt.Errorf("%w: root element is %s", ErrNotWSDL, c.sc.Name())
			}
			continue
		}
		c.readAttrs(depth)
		switch k {
		case kDefinitions:
			doc.ServiceName, doc.TargetNS = string(c.name), string(c.targetNamespace)
		case kComplexType:
			c.complexTypes = append(c.complexTypes, named{name: string(c.name)})
		case kMessage:
			c.messages = append(c.messages, named{name: string(c.name)})
		case kElement:
			ct := &c.complexTypes[len(c.complexTypes)-1]
			ct.members = append(ct.members, c.member())
		case kPart:
			m := &c.messages[len(c.messages)-1]
			m.members = append(m.members, c.member())
		case kOperation:
			c.operations = append(c.operations, operation{name: string(c.name)})
		case kInput, kOutput:
			if c.message == nil {
				break
			}
			if op := &c.operations[len(c.operations)-1]; k == kInput {
				_, op.in = cutPrefix(c.message)
			} else {
				_, op.out = cutPrefix(c.message)
			}
		case kService:
			if c.services++; c.services == 1 {
				c.firstService = string(c.name)
			}
		case kPort:
			c.closePort()
		case kAddress:
			if c.location != nil {
				c.portLocation = string(c.location)
			}
		}
	}
	c.closePort()
	doc.Endpoint = c.endpoint
	if doc.ServiceName == "" {
		doc.ServiceName = c.firstService
	}
	if err := c.resolve(); err != nil {
		return nil, err
	}
	return doc, nil
}

// index keys a table by name; what names a kind of thing twice.
func index(table []named, what string) (map[string][]member, error) {
	byName := make(map[string][]member, len(table))
	for _, n := range table {
		if _, dup := byName[n.name]; dup {
			return nil, fmt.Errorf("wsdl: %s %s %w", what, n.name, errDuplicate)
		}
		byName[n.name] = n.members
	}
	return byName, nil
}

// resolve turns the collected operations into doc.Methods.
func (c *compiler) resolve() error {
	doc := c.doc
	complex, err := index(c.complexTypes, "complexType")
	if err != nil {
		return err
	}
	messages, err := index(c.messages, "message")
	if err != nil {
		return err
	}
	r := &typeResolver{complex: complex, done: make(map[string]*dyn.Type), busy: make(map[string]bool)}
	if len(c.operations) > 0 {
		doc.Methods = make([]dyn.MethodSig, 0, len(c.operations))
	}
	for _, op := range c.operations {
		sig := dyn.MethodSig{Name: op.name, Result: dyn.Void}
		in, ok := messages[string(op.in)]
		if !ok {
			return fmt.Errorf("wsdl: operation %s references missing message %s", op.name, op.in)
		}
		for _, p := range in {
			t, err := r.resolve(p.ref)
			if err != nil {
				return fmt.Errorf("wsdl: operation %s parameter %s: %w", op.name, p.name, err)
			}
			sig.Params = append(sig.Params, dyn.Param{Name: p.name, Type: t})
		}
		if len(op.out) > 0 {
			out, ok := messages[string(op.out)]
			if !ok {
				return fmt.Errorf("wsdl: operation %s references missing message %s", op.name, op.out)
			}
			switch len(out) {
			case 0:
				// void result
			case 1:
				t, err := r.resolve(out[0].ref)
				if err != nil {
					return fmt.Errorf("wsdl: operation %s result: %w", op.name, err)
				}
				sig.Result = t
			default:
				return fmt.Errorf("wsdl: operation %s has %d output parts; at most 1 supported", op.name, len(out))
			}
		}
		doc.Methods = append(doc.Methods, sig)
	}
	slices.SortFunc(doc.Methods, func(a, b dyn.MethodSig) int { return strings.Compare(a.Name, b.Name) })
	for i := 1; i < len(doc.Methods); i++ {
		if doc.Methods[i].Name == doc.Methods[i-1].Name {
			return fmt.Errorf("wsdl: operation %s %w", doc.Methods[i].Name, errDuplicate)
		}
	}
	return nil
}

// typeResolver resolves WSDL type references to dyn types.
type typeResolver struct {
	complex map[string][]member
	done    map[string]*dyn.Type
	busy    map[string]bool
}

// primitives are the names the generator writes for dyn's scalar kinds.
// char is the document's own simple type, not XML Schema's, but a reference
// to it resolves the same under any prefix but one bound to a complexType
// of that name.
var primitives = map[string]*dyn.Type{
	"boolean": dyn.Boolean, "char": dyn.Char, "int": dyn.Int32T, "long": dyn.Int64T,
	"float": dyn.Float32T, "double": dyn.Float64T, "string": dyn.StringT,
}

// resolve goes by the prefix's binding: XML Schema's namespace holds only
// the primitives, the target namespace the declared complex types and then
// char, and a prefix bound to neither (or to nothing) falls back on the name
// alone, primitives first.
func (r *typeResolver) resolve(ref typeRef) (*dyn.Type, error) {
	els, declared := r.complex[string(ref.name)]
	prim := primitives[string(ref.name)]
	switch ref.space {
	case spaceXSD:
		if prim == nil {
			return nil, fmt.Errorf("type %s: %w", ref.name, errNamespace)
		}
		return prim, nil
	case spaceTarget:
		if !declared && string(ref.name) == "char" {
			return prim, nil
		}
		if !declared {
			return nil, fmt.Errorf("type %s: %w", ref.name, errNamespace)
		}
	default:
		if prim != nil {
			return prim, nil
		}
		if !declared {
			return nil, fmt.Errorf("undeclared type %s", ref.name)
		}
	}
	name := string(ref.name)
	if t, ok := r.done[name]; ok {
		return t, nil
	}
	if r.busy[name] {
		return nil, fmt.Errorf("recursive type %s", name)
	}
	r.busy[name] = true
	defer delete(r.busy, name)

	// Array form: single element named item with maxOccurs unbounded.
	if len(els) == 1 && els[0].name == "item" && els[0].unbounded {
		elem, err := r.resolve(els[0].ref)
		if err != nil {
			return nil, fmt.Errorf("array %s: %w", name, err)
		}
		t := dyn.SequenceOf(elem)
		r.done[name] = t
		return t, nil
	}
	fields := make([]dyn.StructField, 0, len(els))
	for _, el := range els {
		ft, err := r.resolve(el.ref)
		if err != nil {
			return nil, fmt.Errorf("struct %s field %s: %w", name, el.name, err)
		}
		fields = append(fields, dyn.StructField{Name: el.name, Type: ft})
	}
	t, err := dyn.StructOf(name, fields...)
	if err != nil {
		return nil, err
	}
	r.done[name] = t
	return t, nil
}
