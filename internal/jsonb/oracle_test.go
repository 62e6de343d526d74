package jsonb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"livedev/internal/dyn"
)

// The differential oracle: the encoding/json-recursive codec the one-pass
// scanner replaced, kept as the reference the table and fuzz tests compare
// against, plus envelope parsers written the obvious way on top of it.

// oracleEncodeValue is the parent commit's EncodeValue, verbatim: one
// json.Marshal per nesting level, struct members as a map (so sorted keys).
func oracleEncodeValue(v dyn.Value) (json.RawMessage, error) {
	switch v.Type().Kind() {
	case dyn.KindVoid:
		return json.RawMessage("null"), nil
	case dyn.KindBoolean:
		return json.Marshal(v.Bool())
	case dyn.KindChar:
		return json.Marshal(string(v.Char()))
	case dyn.KindInt32:
		return json.Marshal(v.Int32())
	case dyn.KindInt64:
		return json.Marshal(strconv.FormatInt(v.Int64(), 10))
	case dyn.KindFloat32:
		return json.Marshal(v.Float32())
	case dyn.KindFloat64:
		return json.Marshal(v.Float64())
	case dyn.KindString:
		return json.Marshal(v.Str())
	case dyn.KindSequence:
		elems := make([]json.RawMessage, 0, v.Len())
		for i := 0; i < v.Len(); i++ {
			e, err := oracleEncodeValue(v.Index(i))
			if err != nil {
				return nil, err
			}
			elems = append(elems, e)
		}
		return json.Marshal(elems)
	case dyn.KindStruct:
		obj := make(map[string]json.RawMessage, v.Type().NumFields())
		for _, f := range v.Type().Fields() {
			fv, _ := v.Field(f.Name)
			e, err := oracleEncodeValue(fv)
			if err != nil {
				return nil, err
			}
			obj[f.Name] = e
		}
		return json.Marshal(obj)
	default:
		return nil, fmt.Errorf("jsonb: cannot encode %s values", v.Type())
	}
}

// oracleDecodeValue is the parent commit's DecodeValue — one json.Unmarshal
// per nesting level — with two fixes the scanner shares: null is rejected
// for every kind but void (Unmarshal treats it as a silent no-op), and a
// void value must at least be well-formed JSON.
func oracleDecodeValue(raw json.RawMessage, t *dyn.Type) (dyn.Value, error) {
	if t.Kind() != dyn.KindVoid && string(bytes.TrimSpace(raw)) == "null" {
		return dyn.Value{}, fmt.Errorf("jsonb: null is not a %s", t)
	}
	switch t.Kind() {
	case dyn.KindVoid:
		if !json.Valid(raw) {
			return dyn.Value{}, errors.New("jsonb: malformed JSON")
		}
		return dyn.VoidValue(), nil
	case dyn.KindBoolean:
		var b bool
		if err := json.Unmarshal(raw, &b); err != nil {
			return dyn.Value{}, fmt.Errorf("jsonb: decoding boolean: %w", err)
		}
		return dyn.BoolValue(b), nil
	case dyn.KindChar:
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return dyn.Value{}, fmt.Errorf("jsonb: decoding char: %w", err)
		}
		r := []rune(s)
		if len(r) != 1 {
			return dyn.Value{}, fmt.Errorf("jsonb: char value must be one rune, got %q", s)
		}
		return dyn.CharValue(r[0]), nil
	case dyn.KindInt32:
		var i int32
		if err := json.Unmarshal(raw, &i); err != nil {
			return dyn.Value{}, fmt.Errorf("jsonb: decoding int32: %w", err)
		}
		return dyn.Int32Value(i), nil
	case dyn.KindInt64:
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return dyn.Value{}, fmt.Errorf("jsonb: decoding int64: %w", err)
		}
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return dyn.Value{}, fmt.Errorf("jsonb: decoding int64: %w", err)
		}
		return dyn.Int64Value(i), nil
	case dyn.KindFloat32:
		var f float32
		if err := json.Unmarshal(raw, &f); err != nil {
			return dyn.Value{}, fmt.Errorf("jsonb: decoding float32: %w", err)
		}
		return dyn.Float32Value(f), nil
	case dyn.KindFloat64:
		var f float64
		if err := json.Unmarshal(raw, &f); err != nil {
			return dyn.Value{}, fmt.Errorf("jsonb: decoding float64: %w", err)
		}
		return dyn.Float64Value(f), nil
	case dyn.KindString:
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return dyn.Value{}, fmt.Errorf("jsonb: decoding string: %w", err)
		}
		return dyn.StringValue(s), nil
	case dyn.KindSequence:
		var elems []json.RawMessage
		if err := json.Unmarshal(raw, &elems); err != nil {
			return dyn.Value{}, fmt.Errorf("jsonb: decoding sequence: %w", err)
		}
		vals := make([]dyn.Value, 0, len(elems))
		for _, e := range elems {
			v, err := oracleDecodeValue(e, t.Elem())
			if err != nil {
				return dyn.Value{}, err
			}
			vals = append(vals, v)
		}
		return dyn.SequenceValue(t.Elem(), vals...)
	case dyn.KindStruct:
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(raw, &obj); err != nil {
			return dyn.Value{}, fmt.Errorf("jsonb: decoding struct %s: %w", t.Name(), err)
		}
		fields := make([]dyn.Value, 0, t.NumFields())
		for _, f := range t.Fields() {
			fraw, ok := obj[f.Name]
			if !ok {
				return dyn.Value{}, fmt.Errorf("jsonb: struct %s missing field %s", t.Name(), f.Name)
			}
			fv, err := oracleDecodeValue(fraw, f.Type)
			if err != nil {
				return dyn.Value{}, err
			}
			fields = append(fields, fv)
		}
		return dyn.StructValue(t, fields...)
	default:
		return dyn.Value{}, fmt.Errorf("jsonb: cannot decode %s values", t)
	}
}

// oracleCall is what oracleParseCall makes of a request envelope; it
// compares field for field with what parseCall returns.
type oracleCall struct {
	method string
	args   []dyn.Value
	stale  bool
}

// oracleMembers splits a JSON object into its members (last duplicate
// wins, names matched exactly), rejecting anything that is not one object
// followed by whitespace.
func oracleMembers(data []byte) (map[string]json.RawMessage, error) {
	if !json.Valid(data) || !bytes.HasPrefix(bytes.TrimLeft(data, " \t\r\n"), []byte("{")) {
		return nil, errors.New("jsonb: not a JSON object")
	}
	var m map[string]json.RawMessage
	err := json.Unmarshal(data, &m)
	return m, err
}

func oracleParseCall(data []byte, lookup func(string) (dyn.MethodSig, bool)) (oracleCall, error) {
	var out oracleCall
	env, err := oracleMembers(data)
	if err != nil {
		return out, err
	}
	if raw, ok := env["method"]; ok {
		if raw[0] != '"' {
			return out, errors.New("jsonb: method must be a string")
		}
		if err := json.Unmarshal(raw, &out.method); err != nil {
			return out, err
		}
	}
	var raws []json.RawMessage
	if raw, ok := env["args"]; ok {
		if raw[0] != '[' {
			return out, errors.New("jsonb: args must be an array")
		}
		if err := json.Unmarshal(raw, &raws); err != nil {
			return out, err
		}
	}
	sig, ok := lookup(out.method)
	if !ok || len(raws) != len(sig.Params) {
		out.stale = true
		return out, nil
	}
	for i, p := range sig.Params {
		v, err := oracleDecodeValue(raws[i], p.Type)
		if err != nil {
			out.args, out.stale = nil, true
			return out, nil
		}
		out.args = append(out.args, v)
	}
	return out, nil
}

// ---- Interface documents ----

// The parent commit's interface-document codec, verbatim but for the
// "oracle" prefix on its names: json.MarshalIndent over a Doc tree and
// json.Unmarshal into one. The writer must match it byte for byte and the
// reader must agree with it on every document it accepted, but for the
// refusals doc.go lists (errDuplicate, errUnnamed, errVoid, errCase).

func oracleTypeDoc(t *dyn.Type) TypeDoc {
	switch t.Kind() {
	case dyn.KindSequence:
		e := oracleTypeDoc(t.Elem())
		return TypeDoc{Kind: "sequence", Elem: &e}
	case dyn.KindStruct:
		return TypeDoc{Kind: "struct", Name: t.Name()}
	default:
		return TypeDoc{Kind: t.Kind().String()}
	}
}

// oracleErrUndefinedStruct marks a struct reference that is not resolvable yet —
// ParseDoc's fixed-point pass retries those until the table is complete.
var oracleErrUndefinedStruct = errors.New("jsonb: undefined struct type")

var oraclePrimitiveKinds = map[string]*dyn.Type{
	"void":    dyn.Void,
	"boolean": dyn.Boolean,
	"char":    dyn.Char,
	"int32":   dyn.Int32T,
	"int64":   dyn.Int64T,
	"float32": dyn.Float32T,
	"float64": dyn.Float64T,
	"string":  dyn.StringT,
}

// oracleResolve turns a TypeDoc back into a dyn.Type against the document's
// struct table.
func oracleResolve(td TypeDoc, structs map[string]*dyn.Type) (*dyn.Type, error) {
	switch td.Kind {
	case "sequence":
		if td.Elem == nil {
			return nil, fmt.Errorf("jsonb: sequence type without element")
		}
		elem, err := oracleResolve(*td.Elem, structs)
		if err != nil {
			return nil, err
		}
		return dyn.SequenceOf(elem), nil
	case "struct":
		t, ok := structs[td.Name]
		if !ok {
			return nil, fmt.Errorf("%w %q", oracleErrUndefinedStruct, td.Name)
		}
		return t, nil
	default:
		t, ok := oraclePrimitiveKinds[td.Kind]
		if !ok {
			return nil, fmt.Errorf("jsonb: unknown type kind %q", td.Kind)
		}
		return t, nil
	}
}

// oracleGenerateDocAs renders the document under another binding's format tag,
// with that binding's multiplexed endpoint if it has one: the one document
// codec, for every binding that shares the grammar.
func oracleGenerateDocAs(format string, desc dyn.InterfaceDescriptor, endpoint, mux string) (string, error) {
	d := Doc{Format: format, Class: desc.ClassName, Endpoint: endpoint, Mux: mux}
	for _, s := range desc.Structs {
		sd := StructDoc{Name: s.Name()}
		for _, f := range s.Fields() {
			sd.Fields = append(sd.Fields, ParamDoc{Name: f.Name, Type: oracleTypeDoc(f.Type)})
		}
		d.Structs = append(d.Structs, sd)
	}
	for _, m := range desc.Methods {
		md := MethodDoc{Name: m.Name, Result: oracleTypeDoc(m.Result), Params: []ParamDoc{}}
		for _, p := range m.Params {
			md.Params = append(md.Params, ParamDoc{Name: p.Name, Type: oracleTypeDoc(p.Type)})
		}
		d.Methods = append(d.Methods, md)
	}
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return "", fmt.Errorf("jsonb: encoding interface document: %w", err)
	}
	return string(out), nil
}

// oracleParseDocAs compiles a document that must carry the given format tag, and
// also returns its multiplexed endpoint, empty if it advertises none.
func oracleParseDocAs(format, text string) (dyn.InterfaceDescriptor, string, string, error) {
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
				ft, err := oracleResolve(f.Type, structs)
				if errors.Is(err, oracleErrUndefinedStruct) {
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
		if sig.Result, err = oracleResolve(md.Result, structs); err != nil {
			return dyn.InterfaceDescriptor{}, "", "", fmt.Errorf("jsonb: method %s result: %w", md.Name, err)
		}
		for _, p := range md.Params {
			pt, perr := oracleResolve(p.Type, structs)
			if perr != nil {
				return dyn.InterfaceDescriptor{}, "", "", fmt.Errorf("jsonb: method %s param %s: %w", md.Name, p.Name, perr)
			}
			sig.Params = append(sig.Params, dyn.Param{Name: p.Name, Type: pt})
		}
		desc.Methods = append(desc.Methods, sig)
	}
	return desc, d.Endpoint, d.Mux, nil
}
