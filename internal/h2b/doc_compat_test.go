package h2b

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"livedev/internal/dyn"
	"livedev/internal/jsonb"
)

// The parent's document path, kept verbatim (names prefixed with "oracle"):
// it wrote a JSON-binding document and then round-tripped the finished text
// through encoding/json to swap the format tag and again to add the mux
// key, and read one the same way round. The JSON-binding document it wrote
// and read is jsonb's reflective codec (oracleJSONGenerateDoc,
// oracleJSONParseDoc), also verbatim, so no leg of the oracle runs the code
// under test. The cross-version test holds the one document codec in jsonb to
// it in both directions.

func oracleGenerateDoc(desc dyn.InterfaceDescriptor, endpoint, mux string) (string, error) {
	text, err := oracleJSONGenerateDoc(desc, endpoint)
	if err != nil {
		return "", err
	}
	text, err = oracleRetag(text, jsonb.DocFormat, DocFormat)
	if err != nil || mux == "" {
		return text, err
	}
	return oracleInjectMux(text, mux)
}

func oracleParseDoc(text string) (dyn.InterfaceDescriptor, string, string, error) {
	var probe struct {
		Format string `json:"format"`
		Mux    string `json:"mux_endpoint"`
	}
	if err := json.Unmarshal([]byte(text), &probe); err != nil {
		return dyn.InterfaceDescriptor{}, "", "", fmt.Errorf("h2b: parsing interface document: %w", err)
	}
	if probe.Format != DocFormat {
		return dyn.InterfaceDescriptor{}, "", "", fmt.Errorf("h2b: unsupported document format %q", probe.Format)
	}
	retagged, err := oracleRetag(text, DocFormat, jsonb.DocFormat)
	if err != nil {
		return dyn.InterfaceDescriptor{}, "", "", err
	}
	desc, endpoint, err := oracleJSONParseDoc(retagged)
	return desc, endpoint, probe.Mux, err
}

func oracleInjectMux(text, mux string) (string, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal([]byte(text), &m); err != nil {
		return "", fmt.Errorf("h2b: re-parsing interface document: %w", err)
	}
	raw, err := json.Marshal(mux)
	if err != nil {
		return "", err
	}
	m["mux_endpoint"] = raw
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return "", fmt.Errorf("h2b: encoding interface document: %w", err)
	}
	return string(out), nil
}

// oracleDoc is jsonb.Doc as the parent had it: no mux member, so a retag
// dropped one.
type oracleDoc struct {
	Format   string            `json:"format"`
	Class    string            `json:"class"`
	Endpoint string            `json:"endpoint"`
	Methods  []jsonb.MethodDoc `json:"methods"`
	Structs  []jsonb.StructDoc `json:"structs,omitempty"`
}

func oracleRetag(text, from, to string) (string, error) {
	var d oracleDoc
	if err := json.Unmarshal([]byte(text), &d); err != nil {
		return "", fmt.Errorf("h2b: parsing interface document: %w", err)
	}
	if d.Format != from {
		return "", fmt.Errorf("h2b: unexpected document format %q", d.Format)
	}
	d.Format = to
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return "", fmt.Errorf("h2b: encoding interface document: %w", err)
	}
	return string(out), nil
}

// compatDescriptor is the interface testdata/parent-doc*.json describe: the
// parent commit's own GenerateDoc wrote them from this descriptor.
func compatDescriptor() dyn.InterfaceDescriptor {
	point := dyn.MustStructOf("Point",
		dyn.StructField{Name: "x", Type: dyn.Float64T},
		dyn.StructField{Name: "y", Type: dyn.Float64T})
	box := dyn.MustStructOf("Box",
		dyn.StructField{Name: "p", Type: point},
		dyn.StructField{Name: "label", Type: dyn.StringT},
		dyn.StructField{Name: "mark", Type: dyn.Char})
	c := dyn.NewClass("HGeo")
	for _, spec := range []dyn.MethodSpec{
		{Name: "mid", Params: []dyn.Param{{Name: "a", Type: point}, {Name: "b", Type: point}}, Result: dyn.SequenceOf(point)},
		{Name: "wrap", Params: []dyn.Param{{Name: "p", Type: point}}, Result: box},
		{Name: "grid", Result: dyn.SequenceOf(dyn.SequenceOf(dyn.Int64T))},
		{Name: "ping"},
		{Name: `odd "name" <&>`, Params: []dyn.Param{{Name: "on", Type: dyn.Boolean}, {Name: "f", Type: dyn.Float32T}, {Name: "i", Type: dyn.Int32T}}},
	} {
		spec.Distributed = true
		if _, err := c.AddMethod(spec); err != nil {
			panic(err)
		}
	}
	return c.Interface()
}

const (
	compatEndpoint = "http://example/h2b/HGeo?a=1&b=2"
	compatMux      = "127.0.0.1:40214"
)

// sameJSON reports whether two documents hold the same members with the same
// values, whatever their order and spacing.
func sameJSON(t *testing.T, a, b string) bool {
	t.Helper()
	var va, vb any
	if err := json.Unmarshal([]byte(a), &va); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(b), &vb); err != nil {
		t.Fatal(err)
	}
	return reflect.DeepEqual(va, vb)
}

// TestDocCrossVersion: documents the parent wrote compile identically with
// this code, documents this code writes compile identically with the
// parent's, and the two write the same content (member order may differ).
func TestDocCrossVersion(t *testing.T) {
	desc := compatDescriptor()
	for _, tc := range []struct{ name, mux, golden string }{
		{"with mux", compatMux, "parent-doc-mux.json"},
		{"without mux", "", "parent-doc.json"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parentText, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			oracleText, err := oracleGenerateDoc(desc, compatEndpoint, tc.mux)
			if err != nil {
				t.Fatal(err)
			}
			if oracleText != string(parentText) {
				t.Fatalf("the oracle is not the parent: it writes\n%s\nthe parent wrote\n%s", oracleText, parentText)
			}
			text, err := GenerateDoc(desc, compatEndpoint, tc.mux)
			if err != nil {
				t.Fatal(err)
			}
			if !sameJSON(t, text, string(parentText)) {
				t.Errorf("content differs from the parent's\n got %s\nwant %s", text, parentText)
			}
			for _, leg := range []struct {
				what  string
				parse func(string) (dyn.InterfaceDescriptor, string, string, error)
				text  string
			}{
				{"this code reads the parent's document", ParseDoc, string(parentText)},
				{"the parent's code reads this document", oracleParseDoc, text},
				{"this code reads this document", ParseDoc, text},
			} {
				got, endpoint, mux, err := leg.parse(leg.text)
				if err != nil {
					t.Fatalf("%s: %v", leg.what, err)
				}
				if !got.Equal(desc) || endpoint != compatEndpoint || mux != tc.mux {
					t.Errorf("%s: endpoint %q mux %q methods %v", leg.what, endpoint, mux, got.Methods)
				}
			}
		})
	}
	// Neither side reads the JSON binding's documents, nor it theirs.
	jsonText, err := jsonb.GenerateDoc(desc, compatEndpoint)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ParseDoc(jsonText); err == nil {
		t.Error("ParseDoc accepted a JSON-binding document")
	}
	if _, _, _, err := ParseDoc("{not json"); err == nil {
		t.Error("ParseDoc accepted malformed text")
	}
}

// ---- jsonb's document codec at the parent commit ----

func oracleTypeDoc(t *dyn.Type) jsonb.TypeDoc {
	switch t.Kind() {
	case dyn.KindSequence:
		e := oracleTypeDoc(t.Elem())
		return jsonb.TypeDoc{Kind: "sequence", Elem: &e}
	case dyn.KindStruct:
		return jsonb.TypeDoc{Kind: "struct", Name: t.Name()}
	default:
		return jsonb.TypeDoc{Kind: t.Kind().String()}
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
func oracleResolve(td jsonb.TypeDoc, structs map[string]*dyn.Type) (*dyn.Type, error) {
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

// oracleJSONGenerateDoc is jsonb.GenerateDoc as the parent had it
// (GenerateDocAs with the JSON binding's format tag and no mux).
func oracleJSONGenerateDoc(desc dyn.InterfaceDescriptor, endpoint string) (string, error) {
	format, mux := jsonb.DocFormat, ""
	d := jsonb.Doc{Format: format, Class: desc.ClassName, Endpoint: endpoint, Mux: mux}
	for _, s := range desc.Structs {
		sd := jsonb.StructDoc{Name: s.Name()}
		for _, f := range s.Fields() {
			sd.Fields = append(sd.Fields, jsonb.ParamDoc{Name: f.Name, Type: oracleTypeDoc(f.Type)})
		}
		d.Structs = append(d.Structs, sd)
	}
	for _, m := range desc.Methods {
		md := jsonb.MethodDoc{Name: m.Name, Result: oracleTypeDoc(m.Result), Params: []jsonb.ParamDoc{}}
		for _, p := range m.Params {
			md.Params = append(md.Params, jsonb.ParamDoc{Name: p.Name, Type: oracleTypeDoc(p.Type)})
		}
		d.Methods = append(d.Methods, md)
	}
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return "", fmt.Errorf("jsonb: encoding interface document: %w", err)
	}
	return string(out), nil
}

// oracleJSONParseDoc is jsonb.ParseDoc as the parent had it (ParseDocAs
// with the JSON binding's format tag, the mux dropped).
func oracleJSONParseDoc(text string) (dyn.InterfaceDescriptor, string, error) {
	desc, endpoint, _, err := oracleJSONParseDocAs(jsonb.DocFormat, text)
	return desc, endpoint, err
}

func oracleJSONParseDocAs(format, text string) (dyn.InterfaceDescriptor, string, string, error) {
	var d jsonb.Doc
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
		var deferred []jsonb.StructDoc
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
