//go:build !race

package cdr

import "testing"

// TestWriteAllocsPooledBulkEncode pins the pooled encode of the bulk shape
// at zero: the walk writes into the encoder's warm buffer and nothing else.
// (The race detector makes sync.Pool drop Puts, hence the build tag.)
func TestWriteAllocsPooledBulkEncode(t *testing.T) {
	v, _ := bulkValue(t)
	allocs := testing.AllocsPerRun(100, func() {
		e := GetEncoder(BigEndian)
		if err := EncodeValue(e, v); err != nil {
			t.Fatal(err)
		}
		PutEncoder(e)
	})
	if allocs > 0 {
		t.Errorf("pooled bulk CDR encode allocates %.1f objects/op, budget is 0", allocs)
	}
}
