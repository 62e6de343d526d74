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
// rebound), more versions commit while the view is down, and each watcher
// reconnects with its last epoch. Epochs strictly continue across the
// restart, every watcher sees both generations, and after catching up each
// one takes a live commit. How it catches up depends on the reopened
// journal:
//   - one that covers the downtime serves `event: replay` — no snapshot —
//     with zero missed or duplicated versions;
//   - one shrunk on reopen (HistoryLen -1) no longer covers the watchers'
//     epochs, so each reconnect gets exactly one snapshot of the latest
//     document and no replay: a replay would have gaps.
func TestRestartRecoveryReplay(t *testing.T) {
	for _, row := range []struct {
		name       string
		historyLen int // the reopened store's
	}{
		{"journal_covers_downtime", 0},
		{"journal_shrunk_on_reopen", -1},
	} {
		t.Run(row.name, func(t *testing.T) { restartAndReconnect(t, row.historyLen) })
	}
}

// restartAndReconnect runs TestRestartRecoveryReplay with the store
// reopened under historyLen: a negative one keeps no journal, so the
// reconnects must be served snapshots.
func restartAndReconnect(t *testing.T, historyLen int) {
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
	content := func(v uint64) string { return fmt.Sprintf("<v%d/>", v) }

	const preRestart = 7
	for i := uint64(1); i <= preRestart; i++ {
		st.PublishVersioned(path, "text/xml", content(i), i)
	}

	// A handful of watchers, parked at different epochs of the history.
	const watchers = 4
	type seenT struct {
		versions []uint64
		epochs   []uint64
		gens     map[uint64]bool
		latest   uint64        // the store's version when it reconnected
		after    []StreamEvent // the events seen after the restart
	}
	seen := make([]seenT, watchers)
	record := func(s *seenT, ev StreamEvent) {
		s.versions = append(s.versions, ev.Doc.Version)
		s.epochs = append(s.epochs, ev.Doc.Epoch)
		s.gens[ev.Doc.Generation] = true
	}
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
			record(&seen[w], ev)
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

	st2 := openDir(t, dir, historyLen)
	defer st2.Close()
	if got := st2.Epoch(); got != preEpoch {
		t.Fatalf("reopened epoch = %d, want %d", got, preEpoch)
	}
	const postRestart = 3
	for i := uint64(preRestart + 1); i <= preRestart+postRestart; i++ {
		st2.PublishVersioned(path, "text/xml", content(i), i)
	}
	if got := st2.Epoch(); got <= preEpoch {
		t.Fatalf("post-restart epoch = %d, want > %d (epochs must strictly continue)", got, preEpoch)
	}
	srv2 := NewView(st2)
	if _, err := srv2.Start(addr); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv2.Close() }()

	// Every watcher reconnects with after=<its last epoch>. Once it holds
	// the latest version, one more commits: it must arrive live.
	for w := 0; w < watchers; w++ {
		latest := st2.Version(path)
		seen[w].latest = latest
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		caughtUp := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			done <- WatchStream(ctx, nil, url, cursor[w], func(ev StreamEvent) {
				record(&seen[w], ev)
				seen[w].after = append(seen[w].after, ev)
				switch ev.Doc.Version {
				case latest:
					select {
					case <-caughtUp: // a duplicate: the checks below report it
					default:
						close(caughtUp)
					}
				case latest + 1:
					cancel()
				}
			})
		}()
		select {
		case <-caughtUp:
			st2.PublishVersioned(path, "text/xml", content(latest+1), latest+1)
		case <-ctx.Done():
		}
		err := <-done
		cancel()
		if ctx.Err() == nil && err != nil {
			t.Fatalf("watcher %d reconnect: %v", w, err)
		}
		select {
		case <-caughtUp:
		default:
			t.Fatalf("watcher %d never caught up to v%d after the restart; saw %+v", w, latest, seen[w].after)
		}
	}

	for w := 0; w < watchers; w++ {
		s := seen[w]
		// The catch-up ends at the latest version; the live commit follows.
		n := len(s.after)
		if n < 2 || s.after[n-2].Doc.Version != s.latest || s.after[n-1].Doc.Version != s.latest+1 {
			t.Fatalf("watcher %d: after the restart saw %+v; want a catch-up to v%d, then v%d live", w, s.after, s.latest, s.latest+1)
		}
		catchUp, live := s.after[:n-1], s.after[n-1]
		if live.Replayed {
			t.Errorf("watcher %d: the live commit came as a replay", w)
		}
		if historyLen < 0 {
			// One snapshot of the latest document, nothing replayed. (A
			// store without a journal sends the live step as the current
			// document too, so its Snapshot flag is not checked.)
			if ev := catchUp[0]; len(catchUp) != 1 || !ev.Snapshot || ev.Replayed || ev.Doc.Content != content(s.latest) {
				t.Errorf("watcher %d: caught up by %+v; want exactly one snapshot event of v%d %q", w, catchUp, s.latest, content(s.latest))
			}
		} else {
			for _, ev := range catchUp {
				if ev.Snapshot || !ev.Replayed {
					t.Errorf("watcher %d: caught up by %+v; a recovered journal must serve replay only", w, catchUp)
					break
				}
			}
			if live.Snapshot {
				t.Errorf("watcher %d: the live commit came as a snapshot", w)
			}
			// No miss, no dup: versions 1..the live one exactly once, in
			// order.
			for i, v := range s.versions {
				if v != uint64(i+1) {
					t.Fatalf("watcher %d: versions = %v, want 1..%d in order", w, s.versions, len(s.versions))
				}
			}
		}
		for i := 1; i < len(s.versions); i++ {
			if s.versions[i] <= s.versions[i-1] {
				t.Errorf("watcher %d: version went backward across restart: %v", w, s.versions)
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
