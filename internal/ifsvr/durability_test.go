package ifsvr

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestSyncPolicyStorm runs a concurrent publisher storm under both sync
// policies (race-enabled in CI): N publishers hammer disjoint paths, every
// ack must be consistent with the final committed versions, reopening
// must recover everything, and no persistence errors may surface. The
// retired spellings of group are refused.
func TestSyncPolicyStorm(t *testing.T) {
	for _, spelling := range []string{"always", "full"} {
		if _, err := ParseSyncPolicy(spelling); err == nil || !strings.Contains(err.Error(), "unknown sync policy") {
			t.Errorf("ParseSyncPolicy(%q) = %v; want unknown sync policy", spelling, err)
		}
	}
	for _, policy := range []SyncPolicy{SyncNone, SyncGroupCommit} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			st, err := OpenStore(StoreConfig{Dir: dir, Sync: policy})
			if err != nil {
				t.Fatal(err)
			}
			const publishers = 8
			const perPub = 25
			var wg sync.WaitGroup
			for w := 0; w < publishers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					path := fmt.Sprintf("/wsdl/P%d.wsdl", w)
					for i := 1; i <= perPub; i++ {
						if v := st.PublishVersioned(path, "text/xml", fmt.Sprintf("<w%dv%d/>", w, i), uint64(i)); v != uint64(i) {
							t.Errorf("publisher %d commit %d acked version %d", w, i, v)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			stats := st.Stats()
			if stats.PersistErrors != 0 {
				t.Fatalf("persist errors under %v storm: %d", policy, stats.PersistErrors)
			}
			if stats.Durability == nil {
				t.Fatal("durable store reported no durability stats")
			}
			if policy != SyncNone {
				// Every logged record was durable before its ack returned.
				if d, l := stats.Durability.DurableLSN, stats.Durability.LastLSN; d < l {
					t.Errorf("durable lsn %d < last lsn %d after all acks", d, l)
				}
				if stats.Durability.Fsyncs == 0 {
					t.Errorf("no fsyncs recorded under %v", policy)
				}
			}
			st.Close()

			st2, err := OpenStore(StoreConfig{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			for w := 0; w < publishers; w++ {
				path := fmt.Sprintf("/wsdl/P%d.wsdl", w)
				d, err := st2.Get(path)
				if err != nil || d.Version != uint64(perPub) {
					t.Errorf("recovered %s = v%d, %v; want v%d", path, d.Version, err, perPub)
				}
			}
		})
	}
}

// TestGroupCommitAckSurvivesCrash is the ack-honesty test, under the
// durable -sync policy: a publication acked under group must be
// recoverable from the data directory after a power loss at ack time. The
// store is crashed (no parting flush or snapshot), and the WAL
// is then cut to the length the last completed fsync covered — the fsync
// seam notes the file's size as each fsync begins — so every byte no
// fsync made durable is gone, as the page cache would be. An ack that
// returned before the fsync covering its record ended fails here.
func TestGroupCommitAckSurvivesCrash(t *testing.T) {
	for _, spelling := range []string{"group"} {
		t.Run(spelling, func(t *testing.T) {
			policy, err := ParseSyncPolicy(spelling)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			st, err := OpenStore(StoreConfig{Dir: dir, Sync: policy, SnapshotEvery: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			var covered int64 // WAL bytes the completed fsyncs made durable
			st.persist.fsync = func(f *os.File) error {
				fi, err := f.Stat()
				if err != nil {
					return err
				}
				if err := walSync(f); err != nil {
					return err
				}
				mu.Lock()
				covered = max(covered, fi.Size())
				mu.Unlock()
				return nil
			}
			const publishers = 6
			const perPub = 10
			acked := make([][]uint64, publishers) // versions each publisher saw acked
			var wg sync.WaitGroup
			for w := 0; w < publishers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					path := fmt.Sprintf("/wsdl/C%d.wsdl", w)
					for i := 1; i <= perPub; i++ {
						v := st.PublishVersioned(path, "text/xml", fmt.Sprintf("<w%dv%d/>", w, i), uint64(i))
						acked[w] = append(acked[w], v)
					}
				}(w)
			}
			wg.Wait()
			if err := st.Crash(); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			cut := covered
			mu.Unlock()
			if err := os.Truncate(filepath.Join(dir, walFile), cut); err != nil {
				t.Fatal(err)
			}

			st2, err := OpenStore(StoreConfig{Dir: dir})
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			defer st2.Close()
			for w := 0; w < publishers; w++ {
				path := fmt.Sprintf("/wsdl/C%d.wsdl", w)
				d, err := st2.Get(path)
				if err != nil {
					t.Fatalf("acked path %s lost in crash: %v", path, err)
				}
				for _, v := range acked[w] {
					if d.Version < v {
						t.Errorf("%s: version %d was acked but recovery stops at %d", path, v, d.Version)
					}
				}
			}
		})
	}
}

// TestRecoveryIsCommitPrefix is the one log's crash-consistency torture:
// multi-path batches — replicated commit records of three paths each, as a
// follower logs them, across paths the sharded layout kept in different
// files — then every
// truncation and every flipped byte of the last two WAL records. Recovery
// must yield exactly the state after a prefix of the committed batches —
// never half a batch, never a later batch without an earlier one — and
// that prefix ends right before the damaged record.
func TestRecoveryIsCommitPrefix(t *testing.T) {
	var paths []string
	for i, seen := 0, map[int]bool{}; len(paths) < 4; i++ {
		p := fmt.Sprintf("/wsdl/P%d.wsdl", i)
		if k := ShardOf(p, 8); !seen[k] {
			seen[k] = true
			paths = append(paths, p)
		}
	}
	type state struct {
		epoch    uint64
		versions [4]uint64
	}
	dir := t.TempDir()
	st, err := OpenStore(StoreConfig{Dir: dir, SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	read := func(st *Store) state {
		s := state{epoch: st.Epoch()}
		for i, p := range paths {
			s.versions[i] = st.Version(p)
		}
		return s
	}
	prefixes := []state{read(st)} // prefixes[k] is the state after k batches
	for _, p := range paths {
		st.Publish(p, "text/xml", "<v1/>") // a publication commits alone
		prefixes = append(prefixes, read(st))
	}
	st.SetReadOnly(true)
	for r := 1; r <= 4; r++ {
		epoch := st.Epoch() + 1
		var batch []StoreEvent // one commit record of three paths
		for i, p := range paths {
			if (i+r)%4 != 0 {
				doc := Document{Content: fmt.Sprintf("<r%d/>", r), ContentType: "text/xml", Version: st.Version(p) + 1, Epoch: epoch}
				batch = append(batch, StoreEvent{Path: p, Doc: doc, Payload: encodeEventPayload(p, doc)})
			}
		}
		if n := st.ApplyReplicated(batch); n != 3 {
			t.Fatalf("batch %d applied %d events, want 3", r, n)
		}
		prefixes = append(prefixes, read(st))
	}
	if err := st.Crash(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	var starts []int // byte offset of each batch's record
	for off := 0; off < len(img); {
		_, n, ok := decodeWALRecord(img[off:])
		if !ok {
			t.Fatalf("WAL image invalid at %d", off)
		}
		starts = append(starts, off)
		off += n
	}
	if len(starts) != len(prefixes)-1 {
		t.Fatalf("WAL holds %d records for %d batches", len(starts), len(prefixes)-1)
	}
	// Damage at offset off lands in record k (0-based): recovery keeps the
	// k batches before it.
	survivors := func(off int) int {
		k := len(starts) - 1
		for starts[k] > off {
			k--
		}
		return k
	}

	check := func(tag string, wal []byte, want state) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, walFile), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, snapshotFile), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenStore(StoreConfig{Dir: dir, SnapshotEvery: 1 << 20})
		if err != nil {
			t.Fatalf("%s: recovery errored: %v", tag, err)
		}
		got := read(st)
		if err := st.Crash(); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: recovered %+v, want the state after the batches before the damage %+v", tag, got, want)
		}
	}
	for off := starts[len(starts)-2]; off < len(img); off++ {
		check(fmt.Sprintf("truncate@%d", off), img[:off], prefixes[survivors(off)])
		mut := bytes.Clone(img)
		mut[off] ^= 0xFF
		check(fmt.Sprintf("bitflip@%d", off), mut, prefixes[survivors(off)])
	}
}

// TestStatsEndpoint: the Interface Server serves the backing store's
// counters — durability block included — as JSON on StatsPath.
func TestStatsEndpoint(t *testing.T) {
	st, err := OpenStore(StoreConfig{Dir: t.TempDir(), Sync: SyncGroupCommit})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sv := NewView(st)
	base, err := sv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	st.Publish("/wsdl/S.wsdl", "text/xml", "<s/>")

	resp, err := http.Get(base + StatsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", StatsPath, resp.StatusCode)
	}
	var got StoreStats
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.WALAppends != 1 || got.Durability == nil {
		t.Fatalf("stats = %+v, want 1 WAL append with a durability block", got)
	}
	if d := got.Durability; d.Policy != "group" || d.LastLSN != 1 || d.DurableLSN != 1 || d.Fsyncs == 0 {
		t.Fatalf("durability stats = %+v", got.Durability)
	}
}

// TestForeignSnapshotSchemaRefused: a snapshot.json in a schema this
// release does not write is refused, and its directory left as it was.
func TestForeignSnapshotSchemaRefused(t *testing.T) {
	foreign := t.TempDir()
	single := map[string]string{
		snapshotFile: `{"schema":"livedev/ifsvr-snapshot/v1","generation":3,"epoch":1,"lsn":1,` +
			`"docs":[{"path":"/wsdl/A.wsdl","content":"<a1/>","content_type":"text/xml","version":1,"epoch":1}]}`,
		walFile: "not a log",
	}
	for name, content := range single {
		if err := os.WriteFile(filepath.Join(foreign, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if st, err := OpenStore(StoreConfig{Dir: foreign}); err == nil {
		st.Close()
		t.Error("a snapshot in a foreign schema was accepted")
	}
	for name, content := range single {
		if got, err := os.ReadFile(filepath.Join(foreign, name)); err != nil || string(got) != content {
			t.Errorf("%s after the refused open: %q, %v; want it untouched", name, got, err)
		}
	}
}
