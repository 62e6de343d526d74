package ifsvr

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// shardPaths returns one document path per shard of a K-way layout, so a
// test can address each shard file deterministically.
func shardPaths(t *testing.T, k int) []string {
	t.Helper()
	paths := make([]string, k)
	found := 0
	for i := 0; found < k && i < 10000; i++ {
		p := fmt.Sprintf("/wsdl/S%04d.wsdl", i)
		if s := shardOf(p, k); paths[s] == "" {
			paths[s] = p
			found++
		}
	}
	if found != k {
		t.Fatalf("could not find a path for each of %d shards", k)
	}
	return paths
}

// TestSyncPolicyStorm runs a concurrent publisher storm under every sync
// policy (race-enabled in CI): N publishers hammer disjoint paths, every
// ack must be consistent with the final committed versions, reopening
// must recover everything, and no persistence errors may surface.
func TestSyncPolicyStorm(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncNone, SyncGroupCommit, SyncAlways} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			st, err := OpenStore(StoreConfig{
				Dir:         dir,
				Shards:      4,
				Sync:        policy,
				GroupWindow: 500 * time.Microsecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			const publishers = 8
			perPub := 25
			if policy == SyncAlways {
				perPub = 8 // every commit pays a real fsync; keep the storm short
			}
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
				for i := range stats.Durability.LastLSN {
					if d, l := stats.Durability.DurableLSN[i], stats.Durability.LastLSN[i]; d < l {
						t.Errorf("shard %d durable lsn %d < last lsn %d after all acks", i, d, l)
					}
				}
				if stats.Durability.Fsyncs == 0 {
					t.Errorf("no fsyncs recorded under %v", policy)
				}
			}
			st.Close()

			st2, err := OpenStore(StoreConfig{Dir: dir, Shards: 4})
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

// TestGroupCommitAckSurvivesCrash is the ack-honesty test: a publication
// acked under SyncGroupCommit must be recoverable from the data directory
// exactly as the files stand at ack time — reopened without Close, no
// parting flush or snapshot (Crash) — because the ack only returned after
// the shard writer's fsync covered the record.
func TestGroupCommitAckSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(StoreConfig{
		Dir:         dir,
		Shards:      4,
		Sync:        SyncGroupCommit,
		GroupWindow: 500 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
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

	st2, err := OpenStore(StoreConfig{Dir: dir, Shards: 4})
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
}

// TestShardTorture is the per-shard crash-consistency torture: with K
// shards each holding its own record stream, truncate and bit-flip every
// byte offset of each shard's last record in turn. Parallel recovery must
// yield the longest valid prefix of the damaged shard, leave every other
// shard untouched, and keep epochs strictly continuing — damage to one
// shard file must never bleed into its neighbours.
func TestShardTorture(t *testing.T) {
	const k = 4
	const batches = 4
	paths := shardPaths(t, k)
	dir := t.TempDir()
	st, err := OpenStore(StoreConfig{Dir: dir, Shards: k, SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	finalEpoch := make([]uint64, k) // epoch carried by each shard's last record
	for i := 1; i <= batches; i++ {
		for s, p := range paths {
			st.PublishVersioned(p, "text/xml", fmt.Sprintf("<v%d/>", i), uint64(i))
			finalEpoch[s] = st.Epoch()
		}
	}
	if err := st.Crash(); err != nil {
		t.Fatal(err)
	}

	// Preserve the crash image of every file; each torture round restores
	// it before damaging one shard.
	pristine := make(map[string][]byte)
	for i := 0; i < k; i++ {
		for _, name := range []string{shardWALFile(i), shardSnapshotFile(i)} {
			img, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			pristine[name] = img
		}
	}
	restore := func() {
		for name, img := range pristine {
			if err := os.WriteFile(filepath.Join(dir, name), img, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(tag string, damaged int) {
		st, err := OpenStore(StoreConfig{Dir: dir, Shards: k, SnapshotEvery: 1 << 20})
		if err != nil {
			t.Fatalf("%s: recovery errored: %v", tag, err)
		}
		for s, p := range paths {
			want := uint64(batches)
			if s == damaged {
				want = batches - 1 // the damaged shard loses exactly its last batch
			}
			if v := st.Version(p); v != want {
				t.Fatalf("%s: shard %d recovered version %d, want %d", tag, s, v, want)
			}
		}
		// The recovered epoch is the newest one an undamaged record carries:
		// losing one shard's tail never rolls back its neighbours.
		var wantEpoch uint64
		for s, e := range finalEpoch {
			if s != damaged && e > wantEpoch {
				wantEpoch = e
			}
		}
		recovered := st.Epoch()
		if recovered != wantEpoch {
			t.Fatalf("%s: recovered epoch %d, want %d (undamaged shards carry the newest epochs)", tag, recovered, wantEpoch)
		}
		// Epochs strictly continue past the recovered state.
		st.Publish(paths[0], "text/xml", "<next/>")
		if got := st.Epoch(); got <= recovered {
			t.Fatalf("%s: post-recovery epoch %d did not advance past %d", tag, got, recovered)
		}
		if err := st.Crash(); err != nil {
			t.Fatal(err)
		}
	}

	for s := 0; s < k; s++ {
		img := pristine[shardWALFile(s)]
		last := lastRecordStart(t, img)
		walPath := filepath.Join(dir, shardWALFile(s))
		for cut := last; cut < len(img); cut++ {
			restore()
			if err := os.WriteFile(walPath, img[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("shard %d truncate@%d", s, cut), s)
		}
		for off := last; off < len(img); off++ {
			restore()
			mut := bytes.Clone(img)
			mut[off] ^= 0xFF
			if err := os.WriteFile(walPath, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("shard %d bitflip@%d", s, off), s)
		}
	}
}

// TestStatsEndpoint: the Interface Server serves the backing store's
// counters — durability block included — as JSON on StatsPath.
func TestStatsEndpoint(t *testing.T) {
	st, err := OpenStore(StoreConfig{Dir: t.TempDir(), Shards: 2, Sync: SyncAlways})
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
	if got.Durability.Policy != "always" || got.Durability.Shards != 2 || got.Durability.Fsyncs == 0 {
		t.Fatalf("durability stats = %+v", got.Durability)
	}
}

// TestReshardOnOpen: opening a directory with a different shard count
// reshards it — every document lands in its new shard, the old layout's
// extra files are removed, and shrinking works as well as growing. Files
// the sharded layout does not name are not a recovery source.
func TestReshardOnOpen(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(StoreConfig{Dir: dir, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	const docs = 20
	for i := 0; i < docs; i++ {
		st.Publish(fmt.Sprintf("/wsdl/R%02d.wsdl", i), "text/xml", fmt.Sprintf("<r%d/>", i))
	}
	st.Close()

	for _, k := range []int{2, 5} { // shrink, then grow again
		st, err := OpenStore(StoreConfig{Dir: dir, Shards: k})
		if err != nil {
			t.Fatalf("reshard to %d: %v", k, err)
		}
		for i := 0; i < docs; i++ {
			path := fmt.Sprintf("/wsdl/R%02d.wsdl", i)
			if d, gerr := st.Get(path); gerr != nil || d.Version != 1 {
				t.Fatalf("reshard to %d lost %s: %+v, %v", k, path, d, gerr)
			}
		}
		st.Close()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if i, perr := parseShardIndex(e.Name(), "snapshot-", ".json"); perr == nil && i >= k {
				t.Errorf("reshard to %d left %s behind", k, e.Name())
			}
			if i, perr := parseShardIndex(e.Name(), "wal-", ".log"); perr == nil && i >= k {
				t.Errorf("reshard to %d left %s behind", k, e.Name())
			}
		}
	}

	// A directory holding only the pre-sharding single-file pair opens
	// empty and leaves both files as they were.
	foreign := t.TempDir()
	single := map[string]string{
		"snapshot.json": `{"schema":"livedev/ifsvr-snapshot/v1","generation":3,"epoch":1,"lsn":1,` +
			`"docs":[{"path":"/wsdl/A.wsdl","content":"<a1/>","content_type":"text/xml","version":1,"epoch":1}]}`,
		"wal.log": "not a sharded log",
	}
	for name, content := range single {
		if err := os.WriteFile(filepath.Join(foreign, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err = OpenStore(StoreConfig{Dir: foreign, Shards: 2})
	if err != nil {
		t.Fatalf("open beside a single-file pair: %v", err)
	}
	if paths := st.Paths(); len(paths) != 0 || st.Stats().Durability.MigratedSources != 0 {
		t.Errorf("single-file pair was read: paths %v, %d migrated sources", paths, st.Stats().Durability.MigratedSources)
	}
	st.Close()
	for name, content := range single {
		if got, err := os.ReadFile(filepath.Join(foreign, name)); err != nil || string(got) != content {
			t.Errorf("%s after open: %q, %v; want it untouched", name, got, err)
		}
	}
}
