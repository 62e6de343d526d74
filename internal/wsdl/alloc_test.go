package wsdl

import "testing"

// The allocation pins of the document path, on the benchmark's class (eight
// operations, one struct, one array: a 6.9 KB document). The reflective
// encoding/xml decoder this replaced made 1 628 allocations per Parse and the
// element tree 639 per XML; what is left is the Document itself — names,
// signatures, dyn types — and the tables the operations are resolved from.
// A return to either shows here long before it shows in a benchmark.
const (
	maxParseAllocs = 110
	maxXMLAllocs   = 12
)

func benchDocument(tb testing.TB) (*Document, []byte) {
	doc := Generate(benchClass(), "http://127.0.0.1:39802/soap/BenchSOAP")
	text, err := doc.XML()
	if err != nil {
		tb.Fatal(err)
	}
	return doc, []byte(text)
}

func TestAllocs_Parse(t *testing.T) {
	_, text := benchDocument(t)
	got := testing.AllocsPerRun(200, func() {
		if _, err := Parse(text); err != nil {
			t.Fatal(err)
		}
	})
	if got > maxParseAllocs {
		t.Errorf("Parse: %.0f allocations per document, want at most %d", got, maxParseAllocs)
	}
}

func TestAllocs_XML(t *testing.T) {
	doc, _ := benchDocument(t)
	got := testing.AllocsPerRun(200, func() {
		if _, err := doc.XML(); err != nil {
			t.Fatal(err)
		}
	})
	if got > maxXMLAllocs {
		t.Errorf("XML: %.0f allocations per document, want at most %d", got, maxXMLAllocs)
	}
}

func BenchmarkParse(b *testing.B) {
	_, text := benchDocument(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(text)))
	for b.Loop() {
		if _, err := Parse(text); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXML(b *testing.B) {
	doc, text := benchDocument(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(text)))
	for b.Loop() {
		if _, err := doc.XML(); err != nil {
			b.Fatal(err)
		}
	}
}

// The oracle's cost on the same document, for the record docs/perf.md keeps.
func BenchmarkOracleParse(b *testing.B) {
	_, text := benchDocument(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := oracleParse(text); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOracleXML(b *testing.B) {
	doc, _ := benchDocument(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := oracleXML(doc); err != nil {
			b.Fatal(err)
		}
	}
}
