// Package jsonb is a third RMI-technology binding for the SDE/CDE: dynamic
// classes served over JSON-POST HTTP, described by a machine-readable JSON
// interface document. It exists to prove the binding seam the paper's
// architecture implies — "an RMI technology with a describable interface"
// — is real: the whole technology plugs in through livedev.RegisterBinding
// (core.Binding + cde.Connector) with no edits to core dispatch, exactly
// the way a third-party technology would.
//
// Wire protocol: POST {"method": "add", "args": [...]} to the endpoint;
// the reply is {"result": ...} or {"error": {"code": ..., "message": ...}}.
// The error code "non-existent-method" is the binding's form of the
// paper's "Non Existent Method" exception and carries the same Section 5.7
// guarantee: by the time the client sees it, the published interface
// document is current.
//
// Member order is not part of the protocol. Decoders accept the members of
// an envelope or of a struct value in any order, match their names exactly,
// ignore (but validate) members they do not know and keep the last of
// duplicates; encoders emit envelope members as shown above and struct
// members in declaration order. Every struct field must be present, and null
// stands only for void: anywhere a typed value is expected it is a mismatch,
// which the server answers as a stale call rather than running the method
// on zeros. Nothing but whitespace may follow an envelope.
//
// Both directions are one pass over one pooled buffer (encode.go, decode.go);
// encoding/json serves only the interface document, off the call path.
package jsonb

import (
	"encoding/json"
	"errors"
	"fmt"

	"livedev/internal/dyn"
)

// DocFormat identifies the interface-document format (and its version).
const DocFormat = "livedev-json-binding/v1"

// ContentType is the MIME type interface documents and calls use.
const ContentType = "application/json"

// Doc is the machine-readable interface description the binding publishes —
// the JSON analogue of a WSDL or CORBA-IDL document.
type Doc struct {
	Format   string `json:"format"`
	Class    string `json:"class"`
	Endpoint string `json:"endpoint"`
	// Mux is a second, multiplexed call endpoint ("host:port"). Only
	// bindings that write this grammar under their own format tag set it.
	Mux     string      `json:"mux_endpoint,omitempty"`
	Methods []MethodDoc `json:"methods"`
	Structs []StructDoc `json:"structs,omitempty"`
}

// MethodDoc describes one distributed method.
type MethodDoc struct {
	Name   string     `json:"name"`
	Params []ParamDoc `json:"params"`
	Result TypeDoc    `json:"result"`
}

// ParamDoc describes one formal parameter.
type ParamDoc struct {
	Name string  `json:"name"`
	Type TypeDoc `json:"type"`
}

// StructDoc defines a named struct type referenced from signatures.
type StructDoc struct {
	Name   string     `json:"name"`
	Fields []ParamDoc `json:"fields"`
}

// TypeDoc is the JSON rendering of a dyn.Type: primitives carry only the
// kind; sequences nest their element; structs are referenced by name and
// defined once in Doc.Structs.
type TypeDoc struct {
	Kind string   `json:"kind"`
	Elem *TypeDoc `json:"elem,omitempty"`
	Name string   `json:"name,omitempty"`
}

func typeDoc(t *dyn.Type) TypeDoc {
	switch t.Kind() {
	case dyn.KindSequence:
		e := typeDoc(t.Elem())
		return TypeDoc{Kind: "sequence", Elem: &e}
	case dyn.KindStruct:
		return TypeDoc{Kind: "struct", Name: t.Name()}
	default:
		return TypeDoc{Kind: t.Kind().String()}
	}
}

// errUndefinedStruct marks a struct reference that is not resolvable yet —
// ParseDoc's fixed-point pass retries those until the table is complete.
var errUndefinedStruct = errors.New("jsonb: undefined struct type")

var primitiveKinds = map[string]*dyn.Type{
	"void":    dyn.Void,
	"boolean": dyn.Boolean,
	"char":    dyn.Char,
	"int32":   dyn.Int32T,
	"int64":   dyn.Int64T,
	"float32": dyn.Float32T,
	"float64": dyn.Float64T,
	"string":  dyn.StringT,
}

// resolve turns a TypeDoc back into a dyn.Type against the document's
// struct table.
func (td TypeDoc) resolve(structs map[string]*dyn.Type) (*dyn.Type, error) {
	switch td.Kind {
	case "sequence":
		if td.Elem == nil {
			return nil, fmt.Errorf("jsonb: sequence type without element")
		}
		elem, err := td.Elem.resolve(structs)
		if err != nil {
			return nil, err
		}
		return dyn.SequenceOf(elem), nil
	case "struct":
		t, ok := structs[td.Name]
		if !ok {
			return nil, fmt.Errorf("%w %q", errUndefinedStruct, td.Name)
		}
		return t, nil
	default:
		t, ok := primitiveKinds[td.Kind]
		if !ok {
			return nil, fmt.Errorf("jsonb: unknown type kind %q", td.Kind)
		}
		return t, nil
	}
}

// GenerateDoc renders the interface document for desc served at endpoint.
func GenerateDoc(desc dyn.InterfaceDescriptor, endpoint string) (string, error) {
	return GenerateDocAs(DocFormat, desc, endpoint, "")
}

// GenerateDocAs renders the document under another binding's format tag,
// with that binding's multiplexed endpoint if it has one: the one document
// codec, for every binding that shares the grammar.
func GenerateDocAs(format string, desc dyn.InterfaceDescriptor, endpoint, mux string) (string, error) {
	d := Doc{Format: format, Class: desc.ClassName, Endpoint: endpoint, Mux: mux}
	for _, s := range desc.Structs {
		sd := StructDoc{Name: s.Name()}
		for _, f := range s.Fields() {
			sd.Fields = append(sd.Fields, ParamDoc{Name: f.Name, Type: typeDoc(f.Type)})
		}
		d.Structs = append(d.Structs, sd)
	}
	for _, m := range desc.Methods {
		md := MethodDoc{Name: m.Name, Result: typeDoc(m.Result), Params: []ParamDoc{}}
		for _, p := range m.Params {
			md.Params = append(md.Params, ParamDoc{Name: p.Name, Type: typeDoc(p.Type)})
		}
		d.Methods = append(d.Methods, md)
	}
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return "", fmt.Errorf("jsonb: encoding interface document: %w", err)
	}
	return string(out), nil
}

// ParseDoc compiles an interface document into a descriptor and the
// advertised endpoint — the binding's stub compiler.
func ParseDoc(text string) (dyn.InterfaceDescriptor, string, error) {
	desc, endpoint, _, err := ParseDocAs(DocFormat, text)
	return desc, endpoint, err
}

// ParseDocAs compiles a document that must carry the given format tag, and
// also returns its multiplexed endpoint, empty if it advertises none.
func ParseDocAs(format, text string) (dyn.InterfaceDescriptor, string, string, error) {
	var d Doc
	if err := json.Unmarshal([]byte(text), &d); err != nil {
		return dyn.InterfaceDescriptor{}, "", "", fmt.Errorf("jsonb: parsing interface document: %w", err)
	}
	if d.Format != format {
		return dyn.InterfaceDescriptor{}, "", "", fmt.Errorf("jsonb: unsupported document format %q", d.Format)
	}
	// The descriptor's struct list is sorted alphabetically, not in
	// dependency order, so a struct may reference one defined later in the
	// document. Resolve to a fixed point: each round builds every struct
	// whose field types are all resolvable, deferring the rest; no
	// progress in a round means a genuinely missing (or cyclic) type.
	structs := make(map[string]*dyn.Type, len(d.Structs))
	pending := d.Structs
	for len(pending) > 0 {
		var deferred []StructDoc
		for _, sd := range pending {
			fields := make([]dyn.StructField, 0, len(sd.Fields))
			var undefined bool
			for _, f := range sd.Fields {
				ft, err := f.Type.resolve(structs)
				if errors.Is(err, errUndefinedStruct) {
					undefined = true
					break
				}
				if err != nil {
					return dyn.InterfaceDescriptor{}, "", "", fmt.Errorf("jsonb: struct %s field %s: %w", sd.Name, f.Name, err)
				}
				fields = append(fields, dyn.StructField{Name: f.Name, Type: ft})
			}
			if undefined {
				deferred = append(deferred, sd)
				continue
			}
			st, err := dyn.StructOf(sd.Name, fields...)
			if err != nil {
				return dyn.InterfaceDescriptor{}, "", "", fmt.Errorf("jsonb: struct %s: %w", sd.Name, err)
			}
			structs[sd.Name] = st
		}
		if len(deferred) == len(pending) {
			sd := deferred[0]
			return dyn.InterfaceDescriptor{}, "", "", fmt.Errorf("jsonb: struct %s references undefined or cyclic struct types", sd.Name)
		}
		pending = deferred
	}
	desc := dyn.InterfaceDescriptor{ClassName: d.Class}
	for _, sd := range d.Structs {
		desc.Structs = append(desc.Structs, structs[sd.Name])
	}
	for _, md := range d.Methods {
		sig := dyn.MethodSig{Name: md.Name}
		var err error
		if sig.Result, err = md.Result.resolve(structs); err != nil {
			return dyn.InterfaceDescriptor{}, "", "", fmt.Errorf("jsonb: method %s result: %w", md.Name, err)
		}
		for _, p := range md.Params {
			pt, perr := p.Type.resolve(structs)
			if perr != nil {
				return dyn.InterfaceDescriptor{}, "", "", fmt.Errorf("jsonb: method %s param %s: %w", md.Name, p.Name, perr)
			}
			sig.Params = append(sig.Params, dyn.Param{Name: p.Name, Type: pt})
		}
		desc.Methods = append(desc.Methods, sig)
	}
	return desc, d.Endpoint, d.Mux, nil
}
