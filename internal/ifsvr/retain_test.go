//go:build !race

package ifsvr_test

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"livedev/internal/ifsvr"
	"livedev/internal/repl"
)

// liveHeap is HeapAlloc after full collections, once it stops falling:
// goroutines of earlier tests in the binary may still be letting go of
// memory.
func liveHeap() int64 {
	var ms runtime.MemStats
	prev := int64(math.MaxInt64)
	for i := 0; i < 100; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		cur := int64(ms.HeapAlloc)
		if prev-cur < 16<<10 {
			return cur
		}
		prev = cur
		time.Sleep(20 * time.Millisecond)
	}
	return int64(ms.HeapAlloc)
}

// TestRetainJournalPayloadOnly: a store with a replication tail server
// attached holds each retained version once — the journal's wire bytes,
// which the ring shares — not the text beside them and a framed copy in
// the ring (about 3× the payload bytes).
func TestRetainJournalPayloadOnly(t *testing.T) {
	st := ifsvr.NewStore(0, nil)
	defer st.Close()
	tail := repl.NewTailServer(st, repl.TailConfig{})
	defer tail.Close()
	base := liveHeap()

	pad := strings.Repeat("x", 8<<10-8)
	for i := 0; i < 2000; i++ {
		st.Publish(fmt.Sprintf("/wsdl/C%d.wsdl", i%4), "text/xml", fmt.Sprintf("v%06d ", i)+pad)
	}
	grown := liveHeap() - base

	var payload int64
	for _, ev := range st.CloneState().Journal {
		payload += int64(len(ev.Payload))
	}
	runtime.KeepAlive(tail)
	t.Logf("live heap +%d bytes for %d journal payload bytes (%.2f×)", grown, payload, float64(grown)/float64(payload))
	if grown > payload*3/2 {
		t.Errorf("live heap grew %d bytes, more than 1.5× the journal's %d payload bytes", grown, payload)
	}
}
