//go:build !race

package ifsvr_test

import (
	"strings"
	"testing"

	"livedev/internal/ifsvr"
	"livedev/internal/repl"
)

// The write path's allocation pins, in the benchmark leader's shape: a
// durable SyncNone store with a replication tail server attached and a
// 1.5 KB document. Cadence snapshots are pinned elsewhere
// (TestCompactAllocsFlatInDocSize); SnapshotEvery keeps them out of these
// runs.

const pinDocPath = "/wsdl/Pin.wsdl"

var pinDoc = strings.Repeat("<operation/>", 128)

func openPinStore(t *testing.T) *ifsvr.Store {
	t.Helper()
	st, err := ifsvr.OpenStore(ifsvr.StoreConfig{Dir: t.TempDir(), Sync: ifsvr.SyncNone, SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

func TestWriteAllocsLeaderPublish(t *testing.T) {
	st := openPinStore(t)
	tail := repl.NewTailServer(st, repl.TailConfig{})
	defer tail.Close()
	var v uint64
	publish := func() {
		v++
		st.PublishVersioned(pinDocPath, "text/xml", pinDoc, v)
	}
	publish()
	if allocs := testing.AllocsPerRun(200, publish); allocs > 5 {
		t.Errorf("an immediate publish allocates %.1f times, want at most 5", allocs)
	}
}

func TestWriteAllocsFollowerApply(t *testing.T) {
	st := openPinStore(t)
	const runs = 200
	batches := make([][]ifsvr.StoreEvent, runs+1) // AllocsPerRun adds a warm-up call
	for i := range batches {
		d := ifsvr.Document{Content: pinDoc, ContentType: "text/xml", Version: uint64(i + 1), Epoch: uint64(i + 1)}
		batches[i] = []ifsvr.StoreEvent{{Path: pinDocPath, Doc: d, Payload: ifsvr.EventPayload(pinDocPath, d)}}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		st.ApplyReplicated(batches[next])
		next++
	})
	if allocs > 1 {
		t.Errorf("applying a replicated batch allocates %.1f times beyond building it, want at most 1", allocs)
	}
}
