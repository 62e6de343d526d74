package ifsvr

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// openDir opens a durable store over dir, failing the test on error.
func openDir(t *testing.T, dir string, historyLen int) *Store {
	t.Helper()
	st, err := OpenStore(StoreConfig{Dir: dir, HistoryLen: historyLen})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStoreRecoversAcrossReopen: documents, versions, the epoch counter,
// retired paths, the replay journal, and the restart generation all
// survive a close/reopen cycle, and the generation increments per open.
func TestStoreRecoversAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	st := openDir(t, dir, 0)
	gen1 := st.Generation()
	if gen1 == 0 {
		t.Error("first open generation = 0")
	}
	for i := 1; i <= 5; i++ {
		st.PublishVersioned("/wsdl/A.wsdl", "text/xml", fmt.Sprintf("<a%d/>", i), uint64(i))
	}
	st.Publish("/idl/B.idl", "text/plain", "interface B {}")
	st.Remove("/idl/B.idl")
	epoch1 := st.Epoch()
	st.Close()

	st2 := openDir(t, dir, 0)
	defer st2.Close()
	if got := st2.Generation(); got != gen1+1 {
		t.Errorf("second open generation = %d, want %d", got, gen1+1)
	}
	if got := st2.Epoch(); got != epoch1 {
		t.Errorf("recovered epoch = %d, want %d", got, epoch1)
	}
	d, err := st2.Get("/wsdl/A.wsdl")
	if err != nil || d.Version != 5 || d.Content != "<a5/>" || d.DescriptorVersion != 5 {
		t.Fatalf("recovered doc = %+v, %v", d, err)
	}
	if _, err := st2.Get("/idl/B.idl"); err == nil {
		t.Error("retired path resurrected by recovery")
	}
	// The retirement floor survives: republication resumes the sequence.
	if v := st2.Publish("/idl/B.idl", "text/plain", "interface B { void x(); }"); v != 2 {
		t.Errorf("republished retired path at version %d, want 2", v)
	}
	// The journal survives: a watcher that saw epoch 2 replays 3..epoch1.
	evs, ok := st2.ReplayEventsInto("/wsdl/A.wsdl", 2, nil)
	if !ok || len(evs) != 3 {
		t.Fatalf("recovered journal replay = %d events, ok=%v; want 3, true", len(evs), ok)
	}
	if evs[0].Doc.Version != 3 || evs[2].Doc.Version != 5 {
		t.Errorf("replayed versions %d..%d, want 3..5", evs[0].Doc.Version, evs[2].Doc.Version)
	}
	// Epochs strictly continue: the next commit is past the old epoch.
	st2.Publish("/wsdl/A.wsdl", "text/xml", "<a6/>")
	if got := st2.Epoch(); got <= epoch1 {
		t.Errorf("post-restart epoch = %d, want > %d", got, epoch1)
	}
}

// TestStoreRecoveryCompacts: reopening writes a fresh snapshot and resets
// the WAL, so recovery cost does not grow with history.
func TestStoreRecoveryCompacts(t *testing.T) {
	dir := t.TempDir()
	st := openDir(t, dir, 0)
	for i := 1; i <= 10; i++ {
		st.Publish("/doc", "text/plain", fmt.Sprintf("v%d", i))
	}
	st.Close()
	// Close snapshots the state: the WAL must be empty again.
	wal, err := os.Stat(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if wal.Size() != 0 {
		t.Errorf("WAL size after close = %d, want 0 (snapshot compaction)", wal.Size())
	}
	st2 := openDir(t, dir, 0)
	defer st2.Close()
	if v := st2.Version("/doc"); v != 10 {
		t.Errorf("recovered version = %d, want 10", v)
	}
}

// TestWipedDirectoryChangesGeneration: a store whose data directory is
// lost reopens under a different generation, so a client that watched the
// old incarnation reads the regressed epochs and versions as a state-loss
// restart instead of refusing them as a stale view of the same server.
func TestWipedDirectoryChangesGeneration(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	st := openDir(t, dir, 0)
	st.Publish("/wsdl/W.wsdl", "text/xml", "<w/>")
	gen := st.Generation()
	st.Close()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	st = openDir(t, dir, 0)
	defer st.Close()
	if got := st.Generation(); got == gen || got == 0 {
		t.Fatalf("generation after the directory was wiped = %d, the lost incarnation had %d", got, gen)
	}
	if v := st.Version("/wsdl/W.wsdl"); v != 0 {
		t.Fatalf("wiped store still holds version %d", v)
	}
}

// TestStoreSnapshotCadence: every SnapshotEvery batches the store compacts
// without waiting for Close — a crash loses at most the tail of the WAL,
// not the whole history.
func TestStoreSnapshotCadence(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(StoreConfig{Dir: dir, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 9; i++ {
		st.Publish("/doc", "text/plain", fmt.Sprintf("v%d", i))
	}
	stats := st.Stats()
	// One snapshot at open, plus two cadence snapshots (batches 4 and 8).
	if stats.Snapshots != 3 {
		t.Errorf("snapshots = %d, want 3 (open + every 4 batches)", stats.Snapshots)
	}
	if stats.WALAppends != 9 {
		t.Errorf("WAL appends = %d, want 9", stats.WALAppends)
	}
	st.Close()
}

// TestRestartRecoveryReplay is the acceptance scenario: streaming watchers
// follow a durable Interface Server through a full process-style restart
// (store closed, HTTP view gone, store reopened from the data dir, view
// rebound). Reconnecting with their last epoch they must be served
// `event: replay` — not a snapshot — with zero missed or duplicated
// versions, and epochs must strictly continue across the restart.
func TestRestartRecoveryReplay(t *testing.T) {
	dir := t.TempDir()
	st := openDir(t, dir, 0)
	srv := NewView(st)
	base, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := strings.TrimPrefix(base, "http://")
	const path = "/wsdl/R.wsdl"
	url := base + path

	const preRestart = 7
	for i := 1; i <= preRestart; i++ {
		st.PublishVersioned(path, "text/xml", fmt.Sprintf("<v%d/>", i), uint64(i))
	}

	// A handful of watchers, parked at different epochs of the history.
	const watchers = 4
	type seenT struct {
		versions  []uint64
		epochs    []uint64
		replays   int
		snapshots int
		gens      map[uint64]bool
	}
	seen := make([]seenT, watchers)
	cursor := make([]uint64, watchers) // each watcher's last seen epoch
	for w := 0; w < watchers; w++ {
		seen[w].gens = map[uint64]bool{}
		// Watcher w follows the stream up to version preRestart-w, then
		// "disconnects" holding that epoch.
		upTo := uint64(preRestart - w)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := WatchStream(ctx, nil, url, 0, func(ev StreamEvent) {
			if ev.Doc.Version > upTo {
				return
			}
			seen[w].versions = append(seen[w].versions, ev.Doc.Version)
			seen[w].epochs = append(seen[w].epochs, ev.Doc.Epoch)
			seen[w].gens[ev.Doc.Generation] = true
			cursor[w] = ev.Doc.Epoch
			if ev.Doc.Version == upTo {
				cancel()
			}
		})
		cancel()
		if ctx.Err() == nil && err != nil {
			t.Fatalf("watcher %d: %v", w, err)
		}
		if cursor[w] == 0 {
			t.Fatalf("watcher %d never reached version %d", w, upTo)
		}
	}

	// Restart: view down, store closed, more commits land after reopening,
	// then the view comes back on the same address.
	preEpoch := st.Epoch()
	gen1 := st.Generation()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2 := openDir(t, dir, 0)
	defer st2.Close()
	if got := st2.Epoch(); got != preEpoch {
		t.Fatalf("reopened epoch = %d, want %d", got, preEpoch)
	}
	const postRestart = 3
	final := uint64(preRestart + postRestart)
	for i := preRestart + 1; i <= preRestart+postRestart; i++ {
		st2.PublishVersioned(path, "text/xml", fmt.Sprintf("<v%d/>", i), uint64(i))
	}
	if got := st2.Epoch(); got <= preEpoch {
		t.Fatalf("post-restart epoch = %d, want > %d (epochs must strictly continue)", got, preEpoch)
	}
	srv2 := NewView(st2)
	if _, err := srv2.Start(addr); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv2.Close() }()

	// Every watcher reconnects with after=<its last epoch> and must be
	// caught up purely from journal replay.
	for w := 0; w < watchers; w++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := WatchStream(ctx, nil, url, cursor[w], func(ev StreamEvent) {
			seen[w].versions = append(seen[w].versions, ev.Doc.Version)
			seen[w].epochs = append(seen[w].epochs, ev.Doc.Epoch)
			seen[w].gens[ev.Doc.Generation] = true
			if ev.Replayed {
				seen[w].replays++
			}
			if ev.Snapshot {
				seen[w].snapshots++
			}
			if ev.Doc.Version == final {
				cancel()
			}
		})
		cancel()
		if ctx.Err() == nil && err != nil {
			t.Fatalf("watcher %d reconnect: %v", w, err)
		}
	}

	for w := 0; w < watchers; w++ {
		s := seen[w]
		if s.snapshots != 0 {
			t.Errorf("watcher %d: %d snapshot events; a recovered journal must serve replay", w, s.snapshots)
		}
		if s.replays == 0 {
			t.Errorf("watcher %d: no replay events on reconnect", w)
		}
		// No miss, no dup: versions 1..final exactly once, in order.
		if len(s.versions) != int(final) {
			t.Fatalf("watcher %d: saw %d versions %v, want %d", w, len(s.versions), s.versions, final)
		}
		for i, v := range s.versions {
			if v != uint64(i+1) {
				t.Fatalf("watcher %d: versions = %v, want 1..%d in order", w, s.versions, final)
			}
		}
		for i := 1; i < len(s.epochs); i++ {
			if s.epochs[i] <= s.epochs[i-1] {
				t.Errorf("watcher %d: epoch regressed across restart: %v", w, s.epochs)
			}
		}
		// Both incarnations were observed, under distinct generations.
		if !s.gens[gen1] || !s.gens[st2.Generation()] || gen1 == st2.Generation() {
			t.Errorf("watcher %d: generations seen %v, want {%d, %d}", w, s.gens, gen1, st2.Generation())
		}
	}
}
