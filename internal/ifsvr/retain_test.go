//go:build !race

package ifsvr_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"livedev/internal/ifsvr"
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

// holdAllPaths serves st and holds one all-paths stream on it, as a
// follower does, until the test ends; reading it is the caller's business.
func holdAllPaths(t *testing.T, st *ifsvr.Store) *ifsvr.Stream {
	t.Helper()
	srv := ifsvr.NewView(st)
	base, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s, err := ifsvr.OpenStream(ctx, nil, base+ifsvr.AllPath, 0)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cancel()
		_ = s.Close()
		_ = srv.Close()
	})
	return s
}

// TestRetainJournalPayloadOnly: a store with a follower's all-paths stream
// held on it holds each retained version once — the journal's wire bytes,
// which the stream sends — not the text beside them or a framed copy
// (about 3× the payload bytes).
func TestRetainJournalPayloadOnly(t *testing.T) {
	st := ifsvr.NewStore(0, nil)
	defer st.Close()
	s := holdAllPaths(t, st)
	var read atomic.Uint64 // the epoch the follower has read through
	go func() { _ = s.Read(context.Background(), func(ev ifsvr.StreamEvent) { read.Store(ev.Doc.Epoch) }) }()
	base := liveHeap()

	pad := strings.Repeat("x", 8<<10-8)
	for i := 0; i < 2000; i++ {
		st.Publish(fmt.Sprintf("/wsdl/C%d.wsdl", i%4), "text/xml", fmt.Sprintf("v%06d ", i)+pad)
	}
	for deadline := time.Now().Add(10 * time.Second); read.Load() < st.Epoch(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the follower's stream stalled at epoch %d of %d", read.Load(), st.Epoch())
		}
	}
	grown := liveHeap() - base

	var payload int64
	for _, ev := range st.CloneState().Journal {
		payload += int64(len(ev.Payload))
	}
	t.Logf("live heap +%d bytes for %d journal payload bytes (%.2f×)", grown, payload, float64(grown)/float64(payload))
	if grown > payload*3/2 {
		t.Errorf("live heap grew %d bytes, more than 1.5× the journal's %d payload bytes", grown, payload)
	}
}
