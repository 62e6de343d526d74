package jsonb

import (
	"testing"

	"livedev/internal/dyn"
)

// Allocation budgets for the value codec on the benchmark's bulk payload
// (256 three-field structs). The encoder allocates nothing beyond the
// message it hands back; the decoder's allocations are what the value itself
// is made of — the sequence's slice and type and the few slab chunks the
// field slices and the strings' bytes share — so a return to per-level
// json.Marshal/Unmarshal (≈4 400 and ≈6 700 objects per call at the parent
// commit), to the copying dyn constructors, to a field slice per struct or
// to a copy per string (one more object per element each) fails here rather
// than eroding calls_bulk. The tests drive the codec beneath the pooled
// entry points, so the counts are exact whatever the pool does (under -race
// it drops a quarter of its Puts).

func TestAllocs_BulkEncode(t *testing.T) {
	v := bulkValue(256)
	buf, err := appendValue(nil, v)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if buf, err = appendValue(buf[:0], v); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("bulk appendValue into a warm buffer allocates %.1f objects/op, budget is 0", allocs)
	}
}

func TestAllocs_BulkDecode(t *testing.T) {
	v := bulkValue(256)
	raw, err := EncodeValue(v)
	if err != nil {
		t.Fatal(err)
	}
	typ := v.Type()
	c := getCodec()
	defer putCodec(c)
	decode := func() {
		c.reset(raw)
		c.fields = dyn.Slab{} // as putCodec leaves it
		if got, err := c.value(typ); err != nil || got.Len() != 256 {
			t.Fatal(got.Len(), err)
		}
	}
	decode() // grow the element stack once
	// Sequence slice + sequence type + the slab's chunks: 3 values doubling
	// to 768 is nine, and the tag strings' bytes doubling from 16 to 4 KiB
	// nine more.
	if allocs := testing.AllocsPerRun(100, decode); allocs > 2+9+9 {
		t.Errorf("bulk decode allocates %.1f objects/op, budget is %d", allocs, 2+9+9)
	}
}

func TestAllocs_CallEnvelopes(t *testing.T) {
	args := []dyn.Value{dyn.Int32Value(20), dyn.Int32Value(22)}
	body, err := appendRequest(nil, "add", args)
	if err != nil {
		t.Fatal(err)
	}
	c := getCodec()
	defer putCodec(c)
	allocs := testing.AllocsPerRun(200, func() {
		c.buf, _ = appendRequest(c.buf[:0], "add", args)
		c.reset(body)
		if req, err := c.parseCall(lookupCallSig); err != nil || req.stale != nil {
			t.Fatal(err, req.stale)
		}
		c.buf, _ = appendResult(c.buf[:0], args[0])
		c.reset(c.buf)
		if rep, err := c.parseReply(dyn.Int32T); err != nil || rep.misfit != nil {
			t.Fatal(err, rep.misfit)
		}
	})
	// The method name and the argument slice; nothing for the envelopes.
	if allocs > 2 {
		t.Errorf("a small call's envelopes allocate %.1f objects/op, budget is 2", allocs)
	}
}

// The interface document, on the benchmark's class shape. The writer
// allocates the string it returns and nothing per method: the parent's
// json.MarshalIndent over a Doc tree made 24 objects at 8 methods and more
// with every method. The reader allocates the Doc tree it fills (names are
// substrings of the text) and the descriptor it resolves; the parent's
// json.Unmarshal made 86 on the 8-method document.
const (
	maxGenerateDocAllocs = 1
	maxParseDocAllocs    = 36
)

func TestAllocs_GenerateDoc(t *testing.T) {
	c := getCodec()
	defer putCodec(c)
	for _, n := range []int{8, 64} {
		desc := benchDesc(n)
		generate := func() { sinkText = string(appendDoc(c.buf[:0], DocFormat, desc, benchEndpoint, "mux:1")) }
		c.buf = appendDoc(c.buf[:0], DocFormat, desc, benchEndpoint, "mux:1") // grow the buffer once
		if allocs := testing.AllocsPerRun(100, generate); allocs != maxGenerateDocAllocs {
			t.Errorf("GenerateDocAs on a %d-method class allocates %.1f objects/op, want %d", n, allocs, maxGenerateDocAllocs)
		}
	}
}

func TestAllocs_ParseDoc(t *testing.T) {
	text, err := GenerateDoc(benchDesc(8), benchEndpoint)
	if err != nil {
		t.Fatal(err)
	}
	c := getCodec()
	defer putCodec(c)
	parse := func() {
		if _, _, _, err := c.parseDoc(DocFormat, text); err != nil {
			t.Fatal(err)
		}
	}
	parse() // grow the buffer once
	if allocs := testing.AllocsPerRun(100, parse); allocs > maxParseDocAllocs {
		t.Errorf("ParseDocAs on the 8-method document allocates %.1f objects/op, budget is %d", allocs, maxParseDocAllocs)
	}
}

var sinkRaw []byte
var sinkValue dyn.Value
var sinkText string

func BenchmarkBulkEncode(b *testing.B) {
	v := bulkValue(256)
	b.ReportAllocs()
	for b.Loop() {
		sinkRaw, _ = EncodeValue(v)
	}
}

func BenchmarkBulkDecode(b *testing.B) {
	v := bulkValue(256)
	raw, _ := EncodeValue(v)
	typ := v.Type()
	b.ReportAllocs()
	for b.Loop() {
		sinkValue, _ = DecodeValue(raw, typ)
	}
}

func BenchmarkGenerateDoc(b *testing.B) {
	desc := benchDesc(8)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := GenerateDoc(desc, benchEndpoint); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseDoc(b *testing.B) {
	text, _ := GenerateDoc(benchDesc(8), benchEndpoint)
	b.ReportAllocs()
	b.SetBytes(int64(len(text)))
	for b.Loop() {
		if _, _, err := ParseDoc(text); err != nil {
			b.Fatal(err)
		}
	}
}

// The oracle's cost on the same document, for the record docs/perf.md keeps.
func BenchmarkOracleGenerateDoc(b *testing.B) {
	desc := benchDesc(8)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := oracleGenerateDocAs(DocFormat, desc, benchEndpoint, ""); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOracleParseDoc(b *testing.B) {
	text, _ := GenerateDoc(benchDesc(8), benchEndpoint)
	b.ReportAllocs()
	for b.Loop() {
		if _, _, _, err := oracleParseDocAs(DocFormat, text); err != nil {
			b.Fatal(err)
		}
	}
}
