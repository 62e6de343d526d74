package soap

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"livedev/internal/dyn"
)

// Allocation budgets for the SOAP envelope hot path. Encoding appends into
// a pooled buffer around a cached skeleton, so a Build call costs the
// returned string and nothing per element; parsing validates in place and
// hands out handles on the input, and DecodeValue allocates only what the
// decoded value owns. Budgets have a little headroom so unrelated runtime
// changes don't flake, but a reintroduced per-call tree build, a per-element
// string on the encode side, or a return to encoding/xml token streaming
// fails loudly. The bulk tests drive the codec beneath the pooled entry
// points, so their counts are exact whatever the pools do (under -race they
// drop a quarter of their Puts).

func TestAllocs_BuildRequest(t *testing.T) {
	params := []NamedValue{{Name: "s", Value: dyn.StringValue("allocation-budget-payload-0123456789")}}
	// Warm the skeleton cache and render pool.
	if _, err := BuildRequest("urn:Alloc", "echo", params); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := BuildRequest("urn:Alloc", "echo", params); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("BuildRequest allocates %.1f objects/op, budget is 2", allocs)
	}
}

func TestAllocs_ParseResponseRoundTrip(t *testing.T) {
	env, err := BuildResponse("urn:Alloc", "echo", dyn.StringValue("allocation-budget-payload-0123456789"))
	if err != nil {
		t.Fatal(err)
	}
	raw := []byte(env)
	allocs := testing.AllocsPerRun(200, func() {
		resp, err := ParseResponse(raw)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeValue(resp.Return, dyn.StringT); err != nil {
			t.Fatal(err)
		}
	})
	// The handle slice, the method name and the decoded string (the tree
	// parser's budget here was 25).
	if allocs > 4 {
		t.Errorf("ParseResponse+DecodeValue allocates %.1f objects/op, budget is 4", allocs)
	}
}

func TestAllocs_BuildResponse(t *testing.T) {
	v := dyn.StringValue("allocation-budget-payload-0123456789")
	if _, err := BuildResponse("urn:Alloc", "echo", v); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := BuildResponse("urn:Alloc", "echo", v); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("BuildResponse allocates %.1f objects/op, budget is 2", allocs)
	}
}

// bulkItem and bulkValue are the benchmark's calls_bulk payload: a sequence
// of 256 struct{int32, string(16), float64}, 46 KB as an envelope. Each
// score is, as the benchmark's, a random int32 divided by 1024: an exact
// binary fraction of up to 17 significant digits.
var bulkItem = dyn.MustStructOf("BenchItem",
	dyn.StructField{Name: "id", Type: dyn.Int32T},
	dyn.StructField{Name: "tag", Type: dyn.StringT},
	dyn.StructField{Name: "score", Type: dyn.Float64T},
)

func bulkValue() dyn.Value {
	rng := rand.New(rand.NewPCG(1, 2))
	elems := make([]dyn.Value, 256)
	for i := range elems {
		elems[i] = dyn.MustStructValue(bulkItem,
			dyn.Int32Value(int32(i*7919-1<<20)),
			dyn.StringValue(fmt.Sprintf("tag-%012d", i*104729)),
			dyn.Float64Value(float64(rng.Int32())/1024),
		)
	}
	return dyn.MustSequenceValue(bulkItem, elems...)
}

func bulkRequest(tb testing.TB) []byte {
	tb.Helper()
	env, err := BuildRequest("urn:Bench", "echoAll", []NamedValue{{Name: "v", Value: bulkValue()}})
	if err != nil {
		tb.Fatal(err)
	}
	return []byte(env)
}

func parseDecodeBulk(tb testing.TB, raw []byte, t *dyn.Type) dyn.Value {
	req, err := ParseRequest(raw)
	if err != nil {
		tb.Fatal(err)
	}
	v, err := DecodeValue(req.Params[0], t)
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

func TestAllocs_BulkParseDecode(t *testing.T) {
	raw, typ := bulkRequest(t), dyn.SequenceOf(bulkItem)
	if got := parseDecodeBulk(t, raw, typ); !got.Equal(bulkValue()) {
		t.Fatal("bulk request does not decode to the value it encodes")
	}
	d := new(decoder)
	parseDecode := func() {
		req, err := ParseRequest(raw)
		if err == nil {
			err = d.enter(req.Params[0])
		}
		if err != nil {
			t.Fatal(err)
		}
		d.fields = dyn.Slab{} // as putDecoder leaves it
		if v, err := d.value(typ); err != nil || v.Len() != 256 {
			t.Fatal(v.Len(), err)
		}
	}
	parseDecode() // grow the element stack once
	// Sequence slice + sequence type + the lexer's stack of open names +
	// handle slice + method name + the slab's chunks: 3 values doubling to
	// 768 is nine, and the tag strings' bytes doubling from 16 to 4 KiB nine
	// more. The tree parser made 5 922, a member slice per struct 256 more
	// than this and a copy per string 256 more again.
	if allocs := testing.AllocsPerRun(50, parseDecode); allocs > 5+9+9 {
		t.Errorf("bulk ParseRequest+DecodeValue allocates %.0f objects/op, budget is %d", allocs, 5+9+9)
	}
}

// TestAllocs_BulkParseCall pins the one-pass read of the same request: the
// walk decodes the parameter in place, so no handle slice is made.
func TestAllocs_BulkParseCall(t *testing.T) {
	raw, typ := bulkRequest(t), dyn.SequenceOf(bulkItem)
	sig := dyn.MethodSig{Name: "echoAll", Params: []dyn.Param{{Name: "v", Type: typ}}, Result: typ}
	lookup := func(string) (dyn.MethodSig, bool) { return sig, true }
	if c, err := ParseCall(raw, lookup); err != nil || c.Stale != nil || !c.Args[0].Equal(bulkValue()) {
		t.Fatalf("bulk request does not decode to the value it encodes: %v, %v", c.Stale, err)
	}
	d := new(decoder)
	parseCall := func() {
		d.fields = dyn.Slab{} // as putDecoder leaves it
		if c, err := d.call(raw, lookup); err != nil || c.Stale != nil || c.Args[0].Len() != 256 {
			t.Fatal(c.Stale, err)
		}
	}
	parseCall() // grow the element stack once
	// Sequence slice + sequence type + argument slice + method name + the
	// slab's nine value chunks and nine string chunks.
	if allocs := testing.AllocsPerRun(50, parseCall); allocs > 4+9+9 {
		t.Errorf("bulk ParseCall allocates %.0f objects/op, budget is %d", allocs, 4+9+9)
	}
}

func TestAllocs_BulkBuild(t *testing.T) {
	params := []NamedValue{{Name: "v", Value: bulkValue()}}
	buf, err := appendRequest(nil, "urn:Bench", "echoAll", params)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if buf, err = appendRequest(buf[:0], "urn:Bench", "echoAll", params); err != nil {
			t.Fatal(err)
		}
	})
	// The per-element encoder made 512, and BuildRequest adds the string it
	// returns.
	if allocs > 0 {
		t.Errorf("bulk appendRequest into a warm buffer allocates %.0f objects/op, budget is 0", allocs)
	}
}

func BenchmarkBulkParseDecode(b *testing.B) {
	raw, typ := bulkRequest(b), dyn.SequenceOf(bulkItem)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for b.Loop() {
		parseDecodeBulk(b, raw, typ)
	}
}

func BenchmarkBulkBuild(b *testing.B) {
	params := []NamedValue{{Name: "v", Value: bulkValue()}}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := BuildRequest("urn:Bench", "echoAll", params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBulkParseCall and BenchmarkBulkParseReply time the one-pass
// reads both ends of a bulk call make: the server's of the request, the
// client's of the response.
func BenchmarkBulkParseCall(b *testing.B) {
	raw, typ := bulkRequest(b), dyn.SequenceOf(bulkItem)
	sig := dyn.MethodSig{Name: "echoAll", Params: []dyn.Param{{Name: "v", Type: typ}}, Result: typ}
	lookup := func(string) (dyn.MethodSig, bool) { return sig, true }
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for b.Loop() {
		if c, err := ParseCall(raw, lookup); err != nil || c.Stale != nil {
			b.Fatal(c.Stale, err)
		}
	}
}

func BenchmarkBulkParseReply(b *testing.B) {
	env, err := BuildResponse("urn:Bench", "echoAll", bulkValue())
	if err != nil {
		b.Fatal(err)
	}
	raw, typ := []byte(env), dyn.SequenceOf(bulkItem)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for b.Loop() {
		if res, err := parseReply(raw, typ); err != nil || res.misfit != nil {
			b.Fatal(res.misfit, err)
		}
	}
}
