package ifsvr

import (
	"reflect"
	"slices"
	"strconv"
	"testing"
)

// The store's one write path, held to its contract row by row: every
// mutation logs one record, delivers one op to the taps, wakes the
// watchers of what it committed, and runs the cadence compaction; a
// mutation that changes nothing does none of it and allocates nothing.

// writeRig is a durable store compacting on every record (SnapshotEvery
// 1), with one tap recording what it is handed and one held watcher on
// /a.
type writeRig struct {
	st   *Store
	ops  []StoreOp
	wake chan struct{}
}

func newWriteRig(t *testing.T) *writeRig {
	t.Helper()
	r := &writeRig{wake: make(chan struct{}, 1)}
	st, err := OpenStore(StoreConfig{Dir: t.TempDir(), SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	r.st = st
	cancel := st.Subscribe(func(op StoreOp) { r.ops = append(r.ops, op) })
	t.Cleanup(cancel)
	t.Cleanup(st.watchPath("/a", r.wake))
	return r
}

// replicated is a leader's commit of path at version and epoch, as a
// follower applies it.
func replicated(path string, version, epoch uint64) []StoreEvent {
	return []StoreEvent{{Path: path, Doc: Document{Content: "<r/>", ContentType: "text/xml", Version: version, Epoch: epoch}}}
}

// opShape renders an op as "C path..." or "R path version" for comparison.
func opShape(op StoreOp) string {
	if op.RemovePath != "" {
		return "R " + op.RemovePath + " " + strconv.FormatUint(op.RemoveVersion, 10)
	}
	s := "C"
	for _, ev := range op.Events {
		s += " " + ev.Path
	}
	return s
}

func TestWriteContract(t *testing.T) {
	publishA := func(r *writeRig) { r.st.Publish("/a", "text/xml", "<a1/>") }
	for _, row := range []struct {
		name  string
		setup func(*writeRig)
		write func(*writeRig)
		want  string // the op's shape; "" for a write that changes nothing
		wake  bool
	}{
		{name: "immediate publish", write: publishA, want: "C /a", wake: true},
		{name: "Remove", setup: publishA, write: func(r *writeRig) { r.st.Remove("/a") }, want: "R /a 1"},
		{name: "ApplyReplicated", write: func(r *writeRig) { r.st.ApplyReplicated(replicated("/a", 1, 1)) }, want: "C /a", wake: true},
		{name: "ApplyReplicatedRemove",
			setup: func(r *writeRig) { r.st.ApplyReplicated(replicated("/a", 1, 1)) },
			write: func(r *writeRig) { r.st.ApplyReplicatedRemove("/a", 1) }, want: "R /a 1"},

		{name: "Remove of an unpublished path", write: func(r *writeRig) { r.st.Remove("/a") }},
		{name: "ApplyReplicated at the current version",
			setup: func(r *writeRig) { r.st.ApplyReplicated(replicated("/a", 2, 2)) },
			write: func(r *writeRig) { r.st.ApplyReplicated(replicated("/a", 1, 1)) }},
		{name: "ApplyReplicatedRemove under a newer commit",
			setup: func(r *writeRig) { r.st.ApplyReplicated(replicated("/a", 2, 2)) },
			write: func(r *writeRig) { r.st.ApplyReplicatedRemove("/a", 1) }},
	} {
		t.Run(row.name, func(t *testing.T) {
			r := newWriteRig(t)
			if row.setup != nil {
				row.setup(r)
			}
			r.ops = nil
			select {
			case <-r.wake:
			default:
			}
			before := r.st.Stats()
			row.write(r)
			after := r.st.Stats()

			var shapes []string
			for _, op := range r.ops {
				shapes = append(shapes, opShape(op))
			}
			woken := len(r.wake) > 0
			appends := after.WALAppends - before.WALAppends
			snapshots := after.Snapshots - before.Snapshots
			if row.want == "" {
				if appends != 0 || len(shapes) != 0 || woken || snapshots != 0 {
					t.Fatalf("a write that changes nothing: %d WAL appends, ops %q, woken %v, %d snapshots; want none", appends, shapes, woken, snapshots)
				}
				if allocs := testing.AllocsPerRun(100, func() { row.write(r) }); allocs != 0 {
					t.Errorf("a write that changes nothing allocates %.1f times, want 0", allocs)
				}
				return
			}
			if appends != 1 {
				t.Errorf("%d WAL appends, want 1", appends)
			}
			if !slices.Equal(shapes, []string{row.want}) {
				t.Errorf("taps got %q, want [%q]", shapes, row.want)
			}
			if woken != row.wake {
				t.Errorf("watcher woken = %v, want %v (commits wake, retirements do not)", woken, row.wake)
			}
			if snapshots != 1 {
				t.Errorf("%d cadence snapshots after a record at SnapshotEvery 1, want 1", snapshots)
			}
			if after.PersistErrors != 0 {
				t.Errorf("%d persist errors", after.PersistErrors)
			}
		})
	}
}

// TestClosedStoreTakesNoWrites: after Close, no write kind changes the
// store — Get, Epoch and Stats read as they did at close — and no tap is
// handed anything. (A leader's tail ring would otherwise ship operations
// its log never recorded.)
func TestClosedStoreTakesNoWrites(t *testing.T) {
	st, err := OpenStore(StoreConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var ops []StoreOp
	st.Subscribe(func(op StoreOp) { ops = append(ops, op) })
	st.Publish("/a", "text/xml", "<a1/>")
	st.Close()
	ops = nil
	doc, _ := st.Get("/a")
	epoch, stats := st.Epoch(), st.Stats()

	st.Publish("/a", "text/xml", "<a2/>")
	st.PublishVersioned("/b", "text/xml", "<b1/>", 3)
	st.Remove("/a")
	st.ApplyReplicated(replicated("/c", 1, epoch+1))
	st.ApplyReplicatedRemove("/a", doc.Version)
	st.ResetReplicated(stats.Generation + 1)

	if got, err := st.Get("/a"); err != nil || got != doc {
		t.Errorf("Get after writes to a closed store = %+v, %v; want %+v", got, err, doc)
	}
	if got := st.Epoch(); got != epoch {
		t.Errorf("epoch %d, want %d", got, epoch)
	}
	if got := st.Stats(); !reflect.DeepEqual(got, stats) {
		t.Errorf("stats changed after close:\n got %+v\nwant %+v", got, stats)
	}
	if len(ops) != 0 {
		t.Errorf("a closed store handed its taps %d ops", len(ops))
	}
}
