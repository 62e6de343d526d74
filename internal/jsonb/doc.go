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
// Both directions are one pass over one pooled buffer (encode.go, decode.go),
// and so is the interface document (this file): an append-style writer and a
// reader on the same scanner, which reads the document's members by the same
// rules, null standing for an absent member. Nothing in the package reflects.
package jsonb

import (
	"errors"
	"fmt"
	"strings"

	"livedev/internal/dyn"
	"livedev/internal/jsonstr"
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

// errUndefinedStruct marks a struct reference that is not resolvable yet —
// ParseDoc's fixed-point pass retries those until the table is complete.
var errUndefinedStruct = errors.New("jsonb: undefined struct type")

// What ParseDoc refuses in a well-formed document whose types resolve: an
// interface no server publishes.
var (
	errDuplicate = errors.New("declared twice")
	errUnnamed   = errors.New("has an empty name")
	errVoid      = errors.New("cannot be void")
	errCase      = errors.New("differs from a member name only in letter case; names are case-sensitive")
)

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
		if elem.Kind() == dyn.KindVoid {
			return nil, fmt.Errorf("jsonb: sequence element %w", errVoid)
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
	c := getCodec()
	defer putCodec(c)
	c.buf = appendDoc(c.buf[:0], format, desc, endpoint, mux)
	return string(c.buf), nil
}

// appendDoc writes the document straight from the descriptor, byte for byte
// what json.MarshalIndent(doc, "", "  ") writes for the Doc describing it,
// the bytes peers running earlier versions expect: "mux_endpoint" only when
// set, "methods": null for a class without methods, "params": [] for a
// method without parameters, "fields": null for a struct without fields, and
// no "structs" when there are none.
func appendDoc(buf []byte, format string, desc dyn.InterfaceDescriptor, endpoint, mux string) []byte {
	w := indenter{buf: buf}
	w.open('{')
	w.key("format")
	w.str(format)
	w.key("class")
	w.str(desc.ClassName)
	w.key("endpoint")
	w.str(endpoint)
	if mux != "" {
		w.key("mux_endpoint")
		w.str(mux)
	}
	w.key("methods")
	if len(desc.Methods) == 0 {
		w.null()
	} else {
		w.open('[')
		for _, m := range desc.Methods {
			w.elem()
			w.open('{')
			w.key("name")
			w.str(m.Name)
			w.key("params")
			w.open('[')
			for _, p := range m.Params {
				w.param(p.Name, p.Type)
			}
			w.close(']')
			w.key("result")
			w.typ(m.Result)
			w.close('}')
		}
		w.close(']')
	}
	if len(desc.Structs) > 0 {
		w.key("structs")
		w.open('[')
		for _, s := range desc.Structs {
			w.elem()
			w.open('{')
			w.key("name")
			w.str(s.Name())
			w.key("fields")
			if s.NumFields() == 0 {
				w.null()
			} else {
				w.open('[')
				for i := 0; i < s.NumFields(); i++ {
					f := s.Field(i)
					w.param(f.Name, f.Type)
				}
				w.close(']')
			}
			w.close('}')
		}
		w.close(']')
	}
	w.close('}')
	return w.buf
}

// indenter appends JSON laid out the way json.MarshalIndent(v, "", "  ")
// lays it out: every member and element on a line of its own, indented two
// spaces a level, and an empty array as "[]".
type indenter struct {
	buf   []byte
	depth int
	// empty says nothing has been written yet inside the innermost open
	// object or array.
	empty bool
}

func (w *indenter) open(b byte) {
	w.buf = append(w.buf, b)
	w.depth++
	w.empty = true
}

func (w *indenter) close(b byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.buf = append(w.buf, b)
	w.empty = false
}

// elem starts a member or an element on a line of its own, after a comma
// unless it is the first.
func (w *indenter) elem() {
	if !w.empty {
		w.buf = append(w.buf, ',')
	}
	w.empty = false
	w.newline()
}

func (w *indenter) newline() {
	w.buf = append(w.buf, '\n')
	for i := 0; i < w.depth; i++ {
		w.buf = append(w.buf, ' ', ' ')
	}
}

// key starts a member, up to its value.
func (w *indenter) key(k string) {
	w.elem()
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, k...)
	w.buf = append(w.buf, '"', ':', ' ')
}

func (w *indenter) str(s string) { w.buf = jsonstr.Append(w.buf, s) }

func (w *indenter) null() { w.buf = append(w.buf, "null"...) }

// param writes one parameter or struct field as an element.
func (w *indenter) param(name string, t *dyn.Type) {
	w.elem()
	w.open('{')
	w.key("name")
	w.str(name)
	w.key("type")
	w.typ(t)
	w.close('}')
}

// typ writes the TypeDoc of t.
func (w *indenter) typ(t *dyn.Type) {
	w.open('{')
	w.key("kind")
	w.str(t.Kind().String())
	switch t.Kind() {
	case dyn.KindSequence:
		w.key("elem")
		w.typ(t.Elem())
	case dyn.KindStruct:
		w.key("name")
		w.str(t.Name())
	}
	w.close('}')
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
	c := getCodec()
	defer putCodec(c)
	return c.parseDoc(format, text)
}

func (c *codec) parseDoc(format, text string) (dyn.InterfaceDescriptor, string, string, error) {
	c.buf = append(c.buf[:0], text...)
	c.reset(c.buf)
	r := docReader{codec: c, text: text}
	d, err := r.doc()
	if err == nil {
		err = r.end()
	}
	if err != nil {
		return dyn.InterfaceDescriptor{}, "", "", err
	}
	if d.Format != format {
		return dyn.InterfaceDescriptor{}, "", "", fmt.Errorf("jsonb: unsupported document format %q", d.Format)
	}
	desc, err := d.descriptor()
	if err != nil {
		return dyn.InterfaceDescriptor{}, "", "", err
	}
	return desc, d.Endpoint, d.Mux, nil
}

// descriptor resolves the document's types and signatures.
func (d *Doc) descriptor() (dyn.InterfaceDescriptor, error) {
	if name, dup := duplicate(d.Structs, func(sd StructDoc) string { return sd.Name }); dup {
		return dyn.InterfaceDescriptor{}, fmt.Errorf("jsonb: struct %s %w", name, errDuplicate)
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
				if err == nil && ft.Kind() == dyn.KindVoid {
					err = errVoid
				}
				if err != nil {
					return dyn.InterfaceDescriptor{}, fmt.Errorf("jsonb: struct %s field %s: %w", sd.Name, f.Name, err)
				}
				fields = append(fields, dyn.StructField{Name: f.Name, Type: ft})
			}
			if undefined {
				deferred = append(deferred, sd)
				continue
			}
			st, err := dyn.StructOf(sd.Name, fields...)
			if err != nil {
				return dyn.InterfaceDescriptor{}, fmt.Errorf("jsonb: struct %s: %w", sd.Name, err)
			}
			structs[sd.Name] = st
		}
		if len(deferred) == len(pending) {
			sd := deferred[0]
			return dyn.InterfaceDescriptor{}, fmt.Errorf("jsonb: struct %s references undefined or cyclic struct types", sd.Name)
		}
		pending = deferred
	}
	for i, md := range d.Methods {
		if md.Name == "" {
			return dyn.InterfaceDescriptor{}, fmt.Errorf("jsonb: method %d %w", i, errUnnamed)
		}
	}
	if name, dup := duplicate(d.Methods, func(md MethodDoc) string { return md.Name }); dup {
		return dyn.InterfaceDescriptor{}, fmt.Errorf("jsonb: method %s %w", name, errDuplicate)
	}
	desc := dyn.InterfaceDescriptor{ClassName: d.Class}
	for _, sd := range d.Structs {
		desc.Structs = append(desc.Structs, structs[sd.Name])
	}
	for _, md := range d.Methods {
		if name, dup := duplicate(md.Params, func(p ParamDoc) string { return p.Name }); dup {
			return dyn.InterfaceDescriptor{}, fmt.Errorf("jsonb: method %s param %s %w", md.Name, name, errDuplicate)
		}
		sig := dyn.MethodSig{Name: md.Name}
		var err error
		if sig.Result, err = md.Result.resolve(structs); err != nil {
			return dyn.InterfaceDescriptor{}, fmt.Errorf("jsonb: method %s result: %w", md.Name, err)
		}
		for _, p := range md.Params {
			pt, perr := p.Type.resolve(structs)
			if perr != nil {
				return dyn.InterfaceDescriptor{}, fmt.Errorf("jsonb: method %s param %s: %w", md.Name, p.Name, perr)
			}
			sig.Params = append(sig.Params, dyn.Param{Name: p.Name, Type: pt})
		}
		desc.Methods = append(desc.Methods, sig)
	}
	return desc, nil
}

// duplicate returns the first name in list that an earlier element already
// has.
func duplicate[T any](list []T, name func(T) string) (string, bool) {
	if len(list) < 2 {
		return "", false
	}
	seen := make(map[string]bool, len(list))
	for _, v := range list {
		n := name(v)
		if seen[n] {
			return n, true
		}
		seen[n] = true
	}
	return "", false
}

// docReader reads an interface document into a Doc in one pass of the
// codec's scanner, which validates every byte it consumes or skips. Names
// and other strings that need no unescaping are substrings of text, the
// document the codec scans a copy of.
type docReader struct {
	*codec
	text string
}

func (r *docReader) doc() (d Doc, err error) {
	err = r.object(func(name []byte) (err error) {
		switch string(name) {
		case "format":
			d.Format, err = r.stringValue()
		case "class":
			d.Class, err = r.stringValue()
		case "endpoint":
			d.Endpoint, err = r.stringValue()
		case "mux_endpoint":
			d.Mux, err = r.stringValue()
		case "methods":
			d.Methods, err = list(r, r.method)
		case "structs":
			d.Structs, err = list(r, r.structDoc)
		default:
			err = r.unknown(name, "format", "class", "endpoint", "mux_endpoint", "methods", "structs")
		}
		return err
	})
	return d, err
}

func (r *docReader) method() (md MethodDoc, err error) {
	err = r.object(func(name []byte) (err error) {
		switch string(name) {
		case "name":
			md.Name, err = r.stringValue()
		case "params":
			md.Params, err = list(r, r.param)
		case "result":
			md.Result, err = r.typeDoc()
		default:
			err = r.unknown(name, "name", "params", "result")
		}
		return err
	})
	return md, err
}

func (r *docReader) param() (p ParamDoc, err error) {
	err = r.object(func(name []byte) (err error) {
		switch string(name) {
		case "name":
			p.Name, err = r.stringValue()
		case "type":
			p.Type, err = r.typeDoc()
		default:
			err = r.unknown(name, "name", "type")
		}
		return err
	})
	return p, err
}

func (r *docReader) structDoc() (sd StructDoc, err error) {
	err = r.object(func(name []byte) (err error) {
		switch string(name) {
		case "name":
			sd.Name, err = r.stringValue()
		case "fields":
			sd.Fields, err = list(r, r.param)
		default:
			err = r.unknown(name, "name", "fields")
		}
		return err
	})
	return sd, err
}

func (r *docReader) typeDoc() (td TypeDoc, err error) {
	err = r.object(func(name []byte) (err error) {
		switch string(name) {
		case "kind":
			td.Kind, err = r.stringValue()
		case "elem":
			td.Elem = nil
			if r.ws() == 'n' {
				return r.literal("null")
			}
			elem := new(TypeDoc)
			*elem, err = r.typeDoc()
			td.Elem = elem
		case "name":
			td.Name, err = r.stringValue()
		default:
			err = r.unknown(name, "kind", "elem", "name")
		}
		return err
	})
	return td, err
}

// object scans an object, or null for one without members, handing each
// member's name to member, which consumes the value. The name is a view
// that the next string scan overwrites.
func (r *docReader) object(member func(name []byte) error) error {
	switch r.ws() {
	case 'n':
		return r.literal("null")
	case '{':
	default:
		return r.mismatch("an object")
	}
	more, err := r.open('}')
	for more && err == nil {
		var name []byte
		if name, err = r.member(); err == nil {
			if err = member(name); err == nil {
				more, err = r.more('}')
			}
		}
	}
	if err == nil {
		r.close()
	}
	return err
}

// list scans an array of elem's values, or null for none.
func list[T any](r *docReader, elem func() (T, error)) ([]T, error) {
	switch r.ws() {
	case 'n':
		return nil, r.literal("null")
	case '[':
	default:
		return nil, r.mismatch("an array")
	}
	var out []T
	more, err := r.open(']')
	for more && err == nil {
		var v T
		if v, err = elem(); err == nil {
			out = append(out, v)
			more, err = r.more(']')
		}
	}
	if err != nil {
		return nil, err
	}
	r.close()
	return out, nil
}

// stringValue scans a string, or null for the empty one.
func (r *docReader) stringValue() (string, error) {
	switch r.ws() {
	case 'n':
		return "", r.literal("null")
	case '"':
	default:
		return "", r.mismatch("a string")
	}
	start := r.pos + 1
	s, err := r.str()
	if err != nil {
		return "", err
	}
	if raw := r.text[start : r.pos-1]; string(s) == raw {
		return raw, nil
	}
	return string(s), nil
}

// unknown skips the value of a member the document grammar does not have,
// unless its name is a known one's in other letter case: encoding/json took
// those for the known member.
func (r *docReader) unknown(name []byte, known ...string) error {
	for _, k := range known {
		if strings.EqualFold(string(name), k) {
			return fmt.Errorf("jsonb: member %q %w", name, errCase)
		}
	}
	return r.skip()
}

func (r *docReader) mismatch(want string) error {
	return fmt.Errorf("jsonb: interface document: expected %s at offset %d", want, r.pos)
}
