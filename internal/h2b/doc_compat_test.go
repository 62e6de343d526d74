package h2b

import (
	"encoding/json"
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
// key, and read one the same way round. The cross-version test holds the one
// document codec in jsonb to it in both directions.

func oracleGenerateDoc(desc dyn.InterfaceDescriptor, endpoint, mux string) (string, error) {
	text, err := jsonb.GenerateDoc(desc, endpoint)
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
	desc, endpoint, err := jsonb.ParseDoc(retagged)
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
