package cdr

import (
	"encoding/binary"
	"runtime"
	"testing"

	"livedev/internal/dyn"
)

// The hot-path allocation budgets pinned here are what the pooled
// encoder/decoder lifecycle buys; a regression that reintroduces per-call
// allocations fails these tests rather than silently eroding Table 1.

func TestAllocs_EncodeDecodeRoundTrip(t *testing.T) {
	v := dyn.StringValue("allocation-budget-payload-0123456789")

	// Pooled encode: zero allocations once the pool is warm.
	warm := GetEncoder(BigEndian)
	if err := EncodeValue(warm, v); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), warm.Bytes()...)
	PutEncoder(warm)

	encAllocs := testing.AllocsPerRun(200, func() {
		e := GetEncoder(BigEndian)
		if err := EncodeValue(e, v); err != nil {
			t.Fatal(err)
		}
		PutEncoder(e)
	})
	if encAllocs > 0 {
		t.Errorf("pooled CDR encode allocates %.1f objects/op, budget is 0", encAllocs)
	}

	// Reused decoder, zero-copy reads over a caller-owned buffer: zero
	// allocations.
	var d Decoder
	decAllocs := testing.AllocsPerRun(200, func() {
		d.Reset(raw, BigEndian)
		d.SetZeroCopy(true)
		if _, err := DecodeValue(&d, dyn.StringT); err != nil {
			t.Fatal(err)
		}
	})
	if decAllocs > 0 {
		t.Errorf("zero-copy CDR decode allocates %.1f objects/op, budget is 0", decAllocs)
	}

	// Copying decode (the default used when values outlive the message
	// buffer): exactly the one string copy.
	copyAllocs := testing.AllocsPerRun(200, func() {
		d.Reset(raw, BigEndian)
		if _, err := DecodeValue(&d, dyn.StringT); err != nil {
			t.Fatal(err)
		}
	})
	if copyAllocs > 1 {
		t.Errorf("copying CDR decode allocates %.1f objects/op, budget is 1", copyAllocs)
	}
}

// bulkValue is the benchmark's bulk payload, a sequence of 256 three-field
// structs, and its big-endian encoding.
func bulkValue(tb testing.TB) (dyn.Value, []byte) {
	v := itemSeq(256)
	e := NewEncoder(BigEndian)
	if err := EncodeValue(e, v); err != nil {
		tb.Fatal(err)
	}
	return v, e.Bytes()
}

// TestAllocs_BulkDecode pins the composite decode on the bulk shape: the
// sequence's slice and type, the one slab chunk all 256 field slices are
// carved from, and nine string chunks, doubling from the first 16-byte tag
// until the 4 KiB of tags fit. A string copy per element made that 256 more,
// and a field slice per struct 256 more again.
func TestAllocs_BulkDecode(t *testing.T) {
	v, raw := bulkValue(t)
	var d Decoder
	allocs := testing.AllocsPerRun(100, func() {
		d.Reset(raw, BigEndian)
		got, err := DecodeValue(&d, v.Type())
		if err != nil || got.Len() != 256 {
			t.Fatal(got.Len(), err)
		}
	})
	if allocs > 3+9 {
		t.Errorf("bulk CDR decode allocates %.1f objects/op, budget is %d", allocs, 3+9)
	}
}

// TestDecodeAllocBound: hostile inputs cannot make a decode allocate more
// than a small multiple of their own size. 65 536 one-octet strings cost a
// value each (24 bytes for their 8 octets on the wire) and chunks of at most
// three times their bytes; a count that claims as many strings as the octets
// left could hold at their minimum of five buys 24 bytes per five octets
// before the decode runs out. Both stay under six times the message.
func TestDecodeAllocBound(t *testing.T) {
	const n = 1 << 16
	e := NewEncoder(BigEndian)
	e.WriteULong(n)
	for range n {
		e.WriteString("x")
	}
	strs := e.Bytes()
	lie := append([]byte(nil), strs...)
	binary.BigEndian.PutUint32(lie, uint32((len(lie)-4)/minSize(dyn.StringT)))
	for _, tc := range []struct {
		name string
		raw  []byte
		ok   bool
	}{{"one-octet strings", strs, true}, {"lying count", lie, false}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, err := DecodeValue(NewDecoder(tc.raw, BigEndian), dyn.SequenceOf(dyn.StringT))
		runtime.ReadMemStats(&after)
		if tc.ok != (err == nil) || tc.ok && v.Len() != n {
			t.Fatalf("%s: %d strings, %v", tc.name, v.Len(), err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 6*uint64(len(tc.raw)) {
			t.Errorf("%s: %d octets allocated %d bytes, want at most six times as many", tc.name, len(tc.raw), got)
		}
	}
}

var sinkValue dyn.Value

func BenchmarkBulkEncode(b *testing.B) {
	v, _ := bulkValue(b)
	b.ReportAllocs()
	for b.Loop() {
		e := GetEncoder(BigEndian)
		if err := EncodeValue(e, v); err != nil {
			b.Fatal(err)
		}
		PutEncoder(e)
	}
}

func BenchmarkBulkDecode(b *testing.B) {
	v, raw := bulkValue(b)
	typ := v.Type()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	var d Decoder
	for b.Loop() {
		d.Reset(raw, BigEndian)
		sinkValue, _ = DecodeValue(&d, typ)
	}
}

// TestZeroCopyReadsAliasBuffer pins the documented sub-slice semantics: Ref
// reads return views of the message buffer, plain reads return copies.
func TestZeroCopyReadsAliasBuffer(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.WriteOctetSeq([]byte{1, 2, 3})
	e.WriteString("view")
	buf := e.Bytes()

	d := NewDecoder(buf, BigEndian)
	seq, err := d.ReadOctetSeqRef()
	if err != nil {
		t.Fatal(err)
	}
	seq[0] = 9
	d2 := NewDecoder(buf, BigEndian)
	copied, err := d2.ReadOctetSeq()
	if err != nil {
		t.Fatal(err)
	}
	if copied[0] != 9 {
		t.Error("ReadOctetSeqRef should alias the buffer")
	}
	copied[0] = 7
	d3 := NewDecoder(buf, BigEndian)
	again, err := d3.ReadOctetSeq()
	if err != nil {
		t.Fatal(err)
	}
	if again[0] != 9 {
		t.Error("ReadOctetSeq should copy, not alias")
	}

	d3.SetZeroCopy(true)
	s, err := d3.ReadString()
	if err != nil || s != "view" {
		t.Fatalf("zero-copy string = %q, %v", s, err)
	}

	// A decoded value owns its strings unless zero-copy mode is on.
	v, raw := bulkValue(t)
	for _, zeroCopy := range []bool{false, true} {
		buf := append([]byte(nil), raw...)
		d := NewDecoder(buf, BigEndian)
		d.SetZeroCopy(zeroCopy)
		got, err := DecodeValue(d, v.Type())
		if err != nil {
			t.Fatal(err)
		}
		clear(buf)
		if aliased := !got.Equal(v); aliased != zeroCopy {
			t.Errorf("zero-copy %v: the decoded value aliases the message buffer: %v", zeroCopy, aliased)
		}
	}
}
