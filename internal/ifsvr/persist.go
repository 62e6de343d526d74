package ifsvr

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// Store persistence: sharded snapshot+WAL pairs.
//
// The durable state of a store is partitioned by path-hash into K shards,
// each a compacted snapshot (snapshot-NN.json) plus a write-ahead log
// (wal-NN.log) of the commit batches and retirements since that shard's
// snapshot. Shards carry independent log sequence numbers and compact
// independently, so a hot path rewrites 1/K of the state instead of all of
// it, and fsync pressure spreads across K files. Open loads every shard
// (and any leftover differently-sharded layout) in parallel, merges
// newest-wins, bumps the generation, and rewrites a fresh full snapshot —
// so a restarted Interface Server resumes at an epoch strictly past its
// pre-restart epoch and still answers reconnecting watchers from the
// journal (event: replay) instead of forcing a snapshot stampede.

// SnapshotSchema identifies the sharded snapshot file format.
const SnapshotSchema = "livedev/ifsvr-snapshot/v2"

// DefaultSnapshotEvery is how many commit batches a shard logs between
// compacted snapshots of that shard.
const DefaultSnapshotEvery = 64

// DefaultShards is the WAL/snapshot shard count when FileConfig.Shards is 0.
const DefaultShards = 8

// DefaultGroupWindow is the group-commit gather window when
// FileConfig.GroupWindow is 0 under SyncGroupCommit.
const DefaultGroupWindow = 2 * time.Millisecond

// SyncPolicy selects what a committed publication's ack means for
// durability (see FileConfig.Sync).
type SyncPolicy int

const (
	// SyncNone acks after the WAL write hits the OS page cache (no fsync):
	// a process crash loses nothing, a power loss can lose the tail.
	SyncNone SyncPolicy = iota
	// SyncGroupCommit acks only after the record is fsynced, with one
	// dedicated writer per shard batching the records of concurrent
	// committers into a single fsync (classic group commit): the ack is
	// honest and the fsync cost is amortized across the group.
	SyncGroupCommit
	// SyncAlways acks only after an fsync issued by the committer itself,
	// one per logged batch — no coalescing, maximum ordering paranoia.
	SyncAlways
)

// String returns the flag spelling of the policy.
func (sp SyncPolicy) String() string {
	switch sp {
	case SyncNone:
		return "none"
	case SyncGroupCommit:
		return "group"
	case SyncAlways:
		return "always"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(sp))
}

// ParseSyncPolicy parses a -sync flag value.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "none":
		return SyncNone, nil
	case "group", "group-commit", "groupcommit":
		return SyncGroupCommit, nil
	case "always", "full":
		return SyncAlways, nil
	}
	return SyncNone, fmt.Errorf("ifsvr: unknown sync policy %q (want none, group, or always)", s)
}

// PersistentState is everything a store needs to resume where a previous
// incarnation left off.
type PersistentState struct {
	// Generation counts store incarnations over this state: the recovered
	// value belongs to the incarnation that wrote it, and Open bumps it.
	Generation uint64
	// Epoch is the last committed epoch.
	Epoch uint64
	// FloorEpoch is the replay-journal floor: the journal covers epochs in
	// (FloorEpoch, Epoch].
	FloorEpoch uint64
	// Docs are the committed documents by path.
	Docs map[string]Document
	// Retired maps removed paths to their last committed version, so a
	// republication resumes the sequence.
	Retired map[string]uint64
	// Journal is the bounded replay journal, commit order.
	Journal []StoreEvent
}

// SyncToken identifies the durability horizon of one logged operation: the
// value Append returns and Sync blocks on. Tokens are opaque to the store
// and meaningful only to the backend that issued them; nil means nothing
// to wait for.
type SyncToken any

// PersistStats are the durability counters of a Persistence backend; all
// fields are cumulative since open.
type PersistStats struct {
	// Policy is the backend's sync policy ("none", "group", "always").
	Policy string
	// Shards is the WAL/snapshot shard count.
	Shards int
	// LastLSN is each shard's last appended log sequence number.
	LastLSN []uint64
	// DurableLSN is each shard's durability watermark: the last lsn known
	// to have survived an fsync (or be covered by a shard snapshot).
	DurableLSN []uint64
	// Fsyncs counts WAL File.Sync calls.
	Fsyncs uint64
	// SyncedBatches counts logged batches made durable by those fsyncs —
	// SyncedBatches/Fsyncs is the mean group-commit batch size.
	SyncedBatches uint64
	// SyncWaits counts commits that blocked waiting for an fsync, and
	// SyncWaitNanos their total wait — SyncWaitNanos/SyncWaits is the mean
	// fsync lag an acked commit paid.
	SyncWaits     uint64
	SyncWaitNanos uint64
	// Compactions counts snapshot passes that wrote at least one shard.
	Compactions uint64
	// MigratedSources counts foreign layouts absorbed at open: shard
	// files from a different shard count.
	MigratedSources int
}

// GroupCommitMean is the mean number of logged batches per fsync.
func (ps PersistStats) GroupCommitMean() float64 {
	if ps.Fsyncs == 0 {
		return 0
	}
	return float64(ps.SyncedBatches) / float64(ps.Fsyncs)
}

// SyncWaitMean is the mean time an acked commit spent waiting on fsync.
func (ps PersistStats) SyncWaitMean() time.Duration {
	if ps.SyncWaits == 0 {
		return 0
	}
	return time.Duration(ps.SyncWaitNanos / ps.SyncWaits)
}

// Persistence is the pluggable durability backend of a Store. The file
// implementation (StoreConfig.Dir) is the default; alternative backends
// (a KV store, object storage) implement the same operations. Load,
// Append, AppendRemove, Compact, Snapshot, and Close are never concurrent
// — the store serializes them on its writer lock (the appends under the
// state lock too; the cadence Compact deliberately off it, so document
// readers never wait on snapshot IO). Sync and Stats ARE concurrent: the
// store calls Sync after releasing its locks so concurrent committers can
// share one fsync. Implementations must not rely on the store's locks for
// their own synchronization, and must not call back into the store.
type Persistence interface {
	// Load recovers the persisted state: the last snapshots plus the
	// longest valid prefix of each write-ahead log. A backend with no
	// prior state returns a zero PersistentState and no error.
	Load() (PersistentState, error)
	// Append logs one committed batch before watchers are notified. The
	// returned token is what Sync blocks on; a nil token means the batch
	// needs no separate sync (policy none).
	Append(events []StoreEvent) (SyncToken, error)
	// AppendRemove logs a path retirement.
	AppendRemove(path string, version uint64) (SyncToken, error)
	// Sync blocks until the operation behind tok is durable under the
	// backend's sync policy. It is called without store locks held, so
	// concurrent committers can batch into one fsync.
	Sync(tok SyncToken) error
	// CompactDue reports whether any shard has logged enough batches to
	// warrant a cadence compaction.
	CompactDue() bool
	// Compact writes compacted snapshots for the shards that are due and
	// resets their logs, so recovery cost stays bounded.
	Compact(state PersistentState) error
	// Snapshot compacts the full state — every shard — and resets all
	// logs (the open/close path).
	Snapshot(state PersistentState) error
	// Stats returns the backend's durability counters.
	Stats() PersistStats
	// Close releases the backend's resources (after a final Snapshot).
	Close() error
}

// snapshotWire is the JSON layout of one shard's snapshot file, as Load
// parses it. Documents and journal entries use the same wire object as
// the SSE transport and the WAL, keyed by path. The writer does not
// marshal it: writeSnapshotImage streams the same bytes from the
// commit-time wire payloads, and a test holds it to json.Marshal of this
// struct.
type snapshotWire struct {
	Schema     string `json:"schema"`
	Generation uint64 `json:"generation"`
	Epoch      uint64 `json:"epoch"`
	FloorEpoch uint64 `json:"floor_epoch"`
	// Shard/Shards locate this file in the sharded layout.
	Shard  int `json:"shard"`
	Shards int `json:"shards,omitempty"`
	// Lsn is the shard's last logged operation this snapshot covers.
	// Recovery skips WAL records at or below it, so replay stays
	// idempotent when a crash leaves already-snapshotted records in the
	// log.
	Lsn     uint64            `json:"lsn"`
	Docs    []streamWire      `json:"docs"`
	Retired map[string]uint64 `json:"retired,omitempty"`
	Journal []streamWire      `json:"journal,omitempty"`
}

// shardSnapshotFile / shardWALFile name shard i's files.
func shardSnapshotFile(i int) string { return fmt.Sprintf("snapshot-%02d.json", i) }
func shardWALFile(i int) string      { return fmt.Sprintf("wal-%02d.log", i) }

// isSnapshotTemp reports whether name is the temp file of a shard
// snapshot write (os.CreateTemp over shardSnapshotFile(i)+".tmp*").
func isSnapshotTemp(name string) bool {
	ok, _ := filepath.Match("snapshot-*.json.tmp*", name)
	return ok
}

// shardOf maps a document path to its shard: FNV-1a over the path, mod K.
// The hash is stable across processes and releases — changing it would
// orphan records — which is why it is spelled out instead of delegated to
// a seed-randomized library hash.
func shardOf(path string, shards int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(path); i++ {
		h ^= uint64(path[i])
		h *= prime64
	}
	return int(h % uint64(shards))
}

// FileConfig configures the file persistence backend.
type FileConfig struct {
	// Dir is the data directory (created if needed).
	Dir string
	// Shards is the WAL/snapshot shard count (0 means DefaultShards).
	// Changing it on an existing directory reshards on the next open.
	Shards int
	// Sync selects the durability policy of the ack (default SyncNone).
	Sync SyncPolicy
	// GroupWindow bounds the extra time a lone commit may wait for
	// concurrent commits to join its fsync group under SyncGroupCommit
	// (0 means DefaultGroupWindow; groups that already formed behind an
	// in-flight fsync are synced immediately).
	GroupWindow time.Duration
	// SnapshotEvery is how many batches one shard logs between cadence
	// compactions of that shard (0 means DefaultSnapshotEvery).
	SnapshotEvery int
}

// walShard is one shard's WAL file plus its sequence and durability
// watermarks. The mutex guards every field; cond wakes only the shard's
// group-commit syncer ("new record appended" / "shutting down"), while
// Sync waiters each get their own channel so an fsync completion wakes
// exactly the commits it covered — a shared broadcast here would stampede
// every parked publisher on every round.
type walShard struct {
	idx  int
	name string

	mu      sync.Mutex
	cond    *sync.Cond
	f       *os.File
	started bool // current file contents begin with the shard-header record
	lsn     uint64
	durable uint64
	batches int   // records appended since this shard's last snapshot
	err     error // sticky append/fsync error; cleared by a successful snapshot
	closed  bool
	waiters []*syncWaiter
	buf     []byte // record encode buffer, reused across appends
}

// walBufKeep caps the encode buffer a shard keeps between appends, so one
// rare huge batch does not stay pinned.
const walBufKeep = 1 << 20

// syncWaiter is one parked Sync call: completed with nil once the shard's
// durable watermark reaches lsn, or with the shard's error.
type syncWaiter struct {
	lsn  uint64
	done chan error
}

// notifyLocked completes every Sync waiter the shard's current state can
// answer: durability covers its record (nil), or the shard hit a sticky
// error or closed. Called with sh.mu held; the channels are buffered so
// the sends cannot block.
func (sh *walShard) notifyLocked() {
	if sh.err == nil && !sh.closed {
		kept := sh.waiters[:0]
		for _, w := range sh.waiters {
			if w.lsn <= sh.durable {
				w.done <- nil
			} else {
				kept = append(kept, w)
			}
		}
		sh.waiters = kept
		return
	}
	fail := sh.err
	if fail == nil {
		fail = ErrStoreClosed
	}
	for _, w := range sh.waiters {
		if w.lsn <= sh.durable {
			w.done <- nil
		} else {
			w.done <- fail
		}
	}
	sh.waiters = nil
}

// filePersistence is the file-backed Persistence: K snapshot+WAL shard
// pairs under one directory. Snapshots are written to a temp file,
// fsynced, renamed into place, and the directory is fsynced — so a crash
// mid-snapshot leaves the previous one intact and a completed rename
// survives power loss.
type filePersistence struct {
	cfg    FileConfig
	shards []*walShard
	// stale are files superseded by the configured layout (shard files
	// from a different K); they are deleted only after the next full
	// snapshot has durably captured their contents in the configured
	// layout.
	stale    []string
	migrated int
	wg       sync.WaitGroup

	fsyncs        atomic.Uint64
	syncedBatches atomic.Uint64
	syncWaits     atomic.Uint64
	syncWaitNanos atomic.Uint64
	compactions   atomic.Uint64
}

// OpenFilePersistence opens (creating if needed) the sharded snapshot+WAL
// layout under cfg.Dir. It is what StoreConfig.Dir resolves to.
func OpenFilePersistence(cfg FileConfig) (Persistence, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	if cfg.GroupWindow <= 0 {
		cfg.GroupWindow = DefaultGroupWindow
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("ifsvr: creating data dir: %w", err)
	}
	p := &filePersistence{cfg: cfg}
	for i := 0; i < cfg.Shards; i++ {
		f, err := os.OpenFile(filepath.Join(cfg.Dir, shardWALFile(i)), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			for _, sh := range p.shards {
				_ = sh.f.Close()
			}
			return nil, fmt.Errorf("ifsvr: opening WAL shard %d: %w", i, err)
		}
		sh := &walShard{idx: i, name: shardWALFile(i), f: f}
		sh.cond = sync.NewCond(&sh.mu)
		p.shards = append(p.shards, sh)
	}
	if cfg.Sync == SyncGroupCommit {
		for _, sh := range p.shards {
			p.wg.Add(1)
			go p.groupSyncer(sh)
		}
	}
	return p, nil
}

// walSource is one on-disk snapshot+WAL pair recovery reads: a configured
// shard, or a shard file left over from a different shard count.
type walSource struct {
	shard    int
	snapName string
	walName  string
}

// sourceState is what one source recovered.
type sourceState struct {
	state   PersistentState
	lsn     uint64 // last applied log sequence number
	applied int    // WAL records applied on top of the snapshot
	err     error
}

// Load implements Persistence: every discoverable source — the configured
// shards plus any differently-sharded leftovers — is replayed
// concurrently (snapshot, then the WAL's longest valid prefix), and the
// results are merged newest-wins by epoch/version. One goroutine per
// source overlaps each shard's file reads with the others' JSON decoding,
// which is what makes recovery wall-time fall as the shard count rises.
// Foreign sources are remembered and deleted after the next full
// Snapshot rewrites their contents into the configured layout — the
// one-shot migration path for a changed shard count.
func (p *filePersistence) Load() (PersistentState, error) {
	sources, err := p.discoverSources()
	if err != nil {
		return PersistentState{}, err
	}
	results := make([]sourceState, len(sources))
	var wg sync.WaitGroup
	for i, src := range sources {
		wg.Add(1)
		go func(i int, src walSource) {
			defer wg.Done()
			results[i] = p.loadSource(src)
		}(i, src)
	}
	wg.Wait()
	for _, res := range results {
		if res.err != nil {
			return PersistentState{}, res.err
		}
	}

	merged := PersistentState{
		Docs:    make(map[string]Document),
		Retired: make(map[string]uint64),
	}
	for i, res := range results {
		st := res.state
		if st.Generation > merged.Generation {
			merged.Generation = st.Generation
		}
		if st.Epoch > merged.Epoch {
			merged.Epoch = st.Epoch
		}
		if st.FloorEpoch > merged.FloorEpoch {
			// The journal floor only ever advances, so the merged journal
			// is complete above the highest floor any source recorded.
			merged.FloorEpoch = st.FloorEpoch
		}
		for path, d := range st.Docs {
			if cur, ok := merged.Docs[path]; !ok || d.Epoch > cur.Epoch ||
				(d.Epoch == cur.Epoch && d.Version > cur.Version) {
				merged.Docs[path] = d
			}
		}
		for path, v := range st.Retired {
			if v > merged.Retired[path] {
				merged.Retired[path] = v
			}
		}
		// Seed the configured shards' sequences from their own source so
		// fresh appends extend, never collide with, records a crash may
		// have left behind the next snapshot's lsn watermark.
		src := sources[i]
		if src.shard < len(p.shards) {
			sh := p.shards[src.shard]
			sh.mu.Lock()
			sh.lsn = res.lsn
			sh.durable = res.lsn
			sh.batches = res.applied
			sh.mu.Unlock()
		}
	}
	// A path both committed and retired across sources: the doc wins only
	// if it outran the retirement (republication resumes and increments
	// the retired version, so a tie means the retirement is newer).
	for path, v := range merged.Retired {
		if d, ok := merged.Docs[path]; ok {
			if d.Version > v {
				delete(merged.Retired, path)
			} else {
				delete(merged.Docs, path)
			}
		}
	}
	merged.Journal = mergeJournals(results, merged.FloorEpoch)
	return merged, nil
}

// discoverSources lists the recovery sources under the data directory and
// records which files the configured layout supersedes. It deletes the
// temp files of snapshots a crash interrupted: the rename is a
// snapshot's commit point, so a leftover temp never holds committed
// state, and nothing else would ever remove it.
func (p *filePersistence) discoverSources() ([]walSource, error) {
	entries, err := os.ReadDir(p.cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("ifsvr: listing data dir: %w", err)
	}
	k := len(p.shards)
	seen := make(map[int]bool)
	for _, e := range entries {
		name := e.Name()
		switch {
		case isSnapshotTemp(name):
			if err := os.Remove(filepath.Join(p.cfg.Dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
				return nil, fmt.Errorf("ifsvr: removing interrupted snapshot %s: %w", name, err)
			}
		case strings.HasPrefix(name, "snapshot-") && strings.HasSuffix(name, ".json"):
			if i, perr := parseShardIndex(name, "snapshot-", ".json"); perr == nil {
				seen[i] = true
			}
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			if i, perr := parseShardIndex(name, "wal-", ".log"); perr == nil {
				seen[i] = true
			}
		}
	}
	for i := 0; i < k; i++ {
		seen[i] = true
	}
	idxs := make([]int, 0, len(seen))
	for i := range seen {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	var sources []walSource
	for _, i := range idxs {
		sources = append(sources, walSource{shard: i, snapName: shardSnapshotFile(i), walName: shardWALFile(i)})
		if i >= k {
			p.stale = append(p.stale, shardSnapshotFile(i), shardWALFile(i))
			p.migrated++
		}
	}
	return sources, nil
}

// parseShardIndex extracts NN from prefix+NN+suffix.
func parseShardIndex(name, prefix, suffix string) (int, error) {
	var i int
	if len(name) < len(prefix)+len(suffix) ||
		!strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, fmt.Errorf("ifsvr: bad shard file name %q", name)
	}
	digits := name[len(prefix) : len(name)-len(suffix)]
	if _, err := fmt.Sscanf(digits, "%d", &i); err != nil || i < 0 {
		return 0, fmt.Errorf("ifsvr: bad shard file name %q", name)
	}
	return i, nil
}

// loadSource recovers one snapshot+WAL pair: the snapshot, then the WAL's
// longest valid prefix on top, skipping records the snapshot's lsn
// watermark already covers. A configured shard's WAL handle is truncated
// to the valid prefix so later appends extend valid data, never garbage.
func (p *filePersistence) loadSource(src walSource) sourceState {
	res := sourceState{state: PersistentState{
		Docs:    make(map[string]Document),
		Retired: make(map[string]uint64),
	}}
	state := &res.state
	data, err := os.ReadFile(filepath.Join(p.cfg.Dir, src.snapName))
	switch {
	case errors.Is(err, os.ErrNotExist):
		// No snapshot yet (first open, or a WAL-only crash window).
	case err != nil:
		res.err = fmt.Errorf("ifsvr: reading %s: %w", src.snapName, err)
		return res
	default:
		var snap snapshotWire
		if jerr := json.Unmarshal(data, &snap); jerr != nil {
			res.err = fmt.Errorf("ifsvr: parsing %s: %w", src.snapName, jerr)
			return res
		}
		if snap.Schema != SnapshotSchema {
			res.err = fmt.Errorf("ifsvr: %s schema %q, want %q", src.snapName, snap.Schema, SnapshotSchema)
			return res
		}
		state.Generation = snap.Generation
		state.Epoch = snap.Epoch
		state.FloorEpoch = snap.FloorEpoch
		res.lsn = snap.Lsn
		for _, w := range snap.Docs {
			state.Docs[w.Path] = wireDocument(w)
		}
		for path, v := range snap.Retired {
			state.Retired[path] = v
		}
		for _, w := range snap.Journal {
			doc := wireDocument(w)
			state.Journal = append(state.Journal, StoreEvent{Path: w.Path, Doc: doc, Payload: encodeEventPayload(w.Path, doc)})
		}
	}

	var sh *walShard
	if src.shard < len(p.shards) {
		sh = p.shards[src.shard]
	}
	var img []byte
	if sh != nil {
		if _, err := sh.f.Seek(0, io.SeekStart); err != nil {
			res.err = fmt.Errorf("ifsvr: seeking %s: %w", src.walName, err)
			return res
		}
		img, err = io.ReadAll(sh.f)
	} else {
		img, err = os.ReadFile(filepath.Join(p.cfg.Dir, src.walName))
		if errors.Is(err, os.ErrNotExist) {
			return res
		}
	}
	if err != nil {
		res.err = fmt.Errorf("ifsvr: reading %s: %w", src.walName, err)
		return res
	}
	recs, valid := scanWAL(img)
	snapLSN := res.lsn
	for _, rec := range recs {
		switch rec.kind {
		case walKindShard:
			// The shard-header record: framing metadata, no state.
		case walKindCommit:
			lsn, evs, derr := decodeCommitPayload(rec.payload)
			if derr != nil || len(evs) == 0 {
				continue // CRC-valid but semantically bad; skip, keep scanning
			}
			if lsn <= snapLSN {
				// An operation the snapshot already covers (crash between
				// snapshot rename and WAL reset): replay is idempotent.
				continue
			}
			res.lsn = lsn
			res.applied++
			for _, ev := range evs {
				state.Docs[ev.Path] = ev.Doc
				delete(state.Retired, ev.Path)
				if ev.Doc.Epoch > state.Epoch {
					state.Epoch = ev.Doc.Epoch
				}
			}
			state.Journal = append(state.Journal, evs...)
		case walKindRemove:
			var rm walRemove
			if json.Unmarshal(rec.payload, &rm) != nil {
				continue
			}
			if rm.Lsn <= snapLSN {
				continue // already covered by the snapshot
			}
			res.lsn = rm.Lsn
			res.applied++
			delete(state.Docs, rm.Path)
			state.Retired[rm.Path] = rm.Version
		}
	}
	if sh != nil {
		if valid < len(img) {
			// Torn or corrupt tail: keep the longest valid prefix.
			if err := sh.f.Truncate(int64(valid)); err != nil {
				res.err = fmt.Errorf("ifsvr: truncating torn tail of %s: %w", src.walName, err)
				return res
			}
		}
		if _, err := sh.f.Seek(int64(valid), io.SeekStart); err != nil {
			res.err = fmt.Errorf("ifsvr: seeking %s: %w", src.walName, err)
			return res
		}
		sh.mu.Lock()
		sh.started = valid > 0
		sh.mu.Unlock()
	}
	return res
}

// wireDocument converts a snapshot/WAL wire object back into a Document.
func wireDocument(w streamWire) Document {
	return Document{
		Content:           w.Content,
		ContentType:       w.ContentType,
		Version:           w.Version,
		DescriptorVersion: w.DescriptorVersion,
		Epoch:             w.Epoch,
	}
}

// mergeJournals unions the sources' replay journals into one epoch-ordered
// journal above the merged floor, deduplicating entries two layouts both
// recorded during an interrupted migration.
func mergeJournals(results []sourceState, floor uint64) []StoreEvent {
	type key struct {
		path  string
		epoch uint64
	}
	seen := make(map[key]bool)
	var out []StoreEvent
	for _, res := range results {
		for _, ev := range res.state.Journal {
			if ev.Doc.Epoch <= floor {
				continue
			}
			k := key{ev.Path, ev.Doc.Epoch}
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, ev)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Doc.Epoch != out[j].Doc.Epoch {
			return out[i].Doc.Epoch < out[j].Doc.Epoch
		}
		return out[i].Path < out[j].Path
	})
	return out
}

// walMark is one shard's durability target inside a fileSyncToken.
type walMark struct {
	shard int
	lsn   uint64
}

// fileSyncToken is the SyncToken of a file-backend operation that logged
// on several shards: the per-shard lsns it must see durable before its
// ack. An operation on one shard returns its walMark alone — one
// allocation, not two.
type fileSyncToken []walMark

// Append implements Persistence: the batch's events are partitioned by
// path-hash and logged to each touched shard under that shard's next lsn.
// The write is buffered (page cache); durability is the syncer's job, and
// the returned token names every touched shard so the ack waits for all
// of them.
func (p *filePersistence) Append(events []StoreEvent) (SyncToken, error) {
	k := len(p.shards)
	if k == 1 || len(events) == 1 {
		idx := 0
		if k > 1 {
			idx = shardOf(events[0].Path, k)
		}
		return p.appendShard(idx, func(buf []byte, lsn uint64) []byte {
			return appendCommitRecord(buf, lsn, events)
		})
	}
	groups := make(map[int][]StoreEvent)
	order := make([]int, 0, 2)
	for _, ev := range events {
		idx := shardOf(ev.Path, k)
		if _, ok := groups[idx]; !ok {
			order = append(order, idx)
		}
		groups[idx] = append(groups[idx], ev)
	}
	var tok fileSyncToken
	for _, idx := range order {
		evs := groups[idx]
		t, err := p.appendShard(idx, func(buf []byte, lsn uint64) []byte {
			return appendCommitRecord(buf, lsn, evs)
		})
		if err != nil {
			return tok, err
		}
		tok = append(tok, t.(walMark))
	}
	return tok, nil
}

// AppendRemove implements Persistence: one retirement record on the
// path's shard.
func (p *filePersistence) AppendRemove(path string, version uint64) (SyncToken, error) {
	return p.appendShard(shardOf(path, len(p.shards)), func(buf []byte, lsn uint64) []byte {
		return appendRemoveRecord(buf, lsn, path, version)
	})
}

// appendShard logs one record on shard idx, lazily writing the
// shard-header record when the file is empty. enc frames the record for
// lsn onto the shard's reused encode buffer, and one write(2) hands
// header and record to the kernel. A record over walMaxRecord is refused
// before anything is written — recovery would read it as a torn tail and
// drop every later record with it — so that error is not sticky. A write
// error is: recovery stops at the first bad record, so appending past a
// torn one would only log bytes replay can never reach. A later
// successful snapshot of the shard resets the file and clears the error.
func (p *filePersistence) appendShard(idx int, enc func(buf []byte, lsn uint64) []byte) (SyncToken, error) {
	sh := p.shards[idx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return nil, ErrStoreClosed
	}
	if sh.err != nil {
		return nil, sh.err
	}
	buf := sh.buf[:0]
	if !sh.started {
		buf = appendShardHeaderRecord(buf, idx, len(p.shards))
	}
	lsn := sh.lsn + 1
	start := len(buf)
	buf = enc(buf, lsn)
	if n := len(buf) - start - walHeaderLen; n > walMaxRecord {
		sh.keepBuf(buf)
		return nil, fmt.Errorf("ifsvr: WAL record of %d bytes on shard %d exceeds the %d-byte limit", n, idx, walMaxRecord)
	}
	_, err := sh.f.Write(buf)
	sh.keepBuf(buf)
	if err != nil {
		sh.err = err
		sh.cond.Broadcast()
		sh.notifyLocked()
		return nil, err
	}
	sh.started = true
	sh.lsn = lsn
	sh.batches++
	switch p.cfg.Sync {
	case SyncAlways:
		// The committer pays its own fsync, inline, before the ack.
		if err := walSync(sh.f); err != nil {
			sh.err = err
			sh.cond.Broadcast()
			sh.notifyLocked()
			return nil, err
		}
		sh.durable = lsn
		p.fsyncs.Add(1)
		p.syncedBatches.Add(1)
		sh.notifyLocked()
	case SyncGroupCommit:
		sh.cond.Broadcast() // hand the record to the shard's writer
	}
	return walMark{shard: idx, lsn: lsn}, nil
}

// keepBuf retains buf as the shard's encode buffer for the next append,
// unless a huge batch grew it past walBufKeep. Caller holds sh.mu; the
// write(2) has already copied the bytes into the kernel.
func (sh *walShard) keepBuf(buf []byte) {
	if cap(buf) > walBufKeep {
		sh.buf = nil
		return
	}
	sh.buf = buf[:0]
}

// groupSyncer is shard sh's dedicated WAL writer under SyncGroupCommit:
// it fsyncs whenever records are waiting, and every record appended while
// one fsync is in flight rides the next one — piggyback batching, the
// classic group commit. Crucially it never waits for a group to finish
// forming: the in-flight fsync IS the gather window, so on a sustained
// storm the committers acked by one fsync append their next records
// while the following fsync runs, and commit CPU overlaps disk time
// instead of alternating with it. Only a lone record waits: one yield
// (letting already-runnable committers join) plus, if it is still alone,
// a fraction of GroupWindow — one bounded chance for an imminent
// concurrent commit to share the fsync. (A deliberate full-window pause
// before each storm flush was tried and measured slower here: the
// closed-loop committers exhaust their in-flight commits within the
// window and the pause becomes idle time.)
func (p *filePersistence) groupSyncer(sh *walShard) {
	defer p.wg.Done()
	gatherTick := p.cfg.GroupWindow / 8
	for {
		sh.mu.Lock()
		for !sh.closed && (sh.err != nil || sh.durable >= sh.lsn) {
			sh.cond.Wait()
		}
		if sh.closed {
			sh.mu.Unlock()
			return
		}
		target := sh.lsn
		pending := target - sh.durable
		sh.mu.Unlock()

		if pending == 1 {
			runtime.Gosched()
			sh.mu.Lock()
			if sh.closed {
				sh.mu.Unlock()
				return
			}
			if sh.err == nil && sh.lsn > target {
				target = sh.lsn
				pending = target - sh.durable
			}
			sh.mu.Unlock()
		}
		if pending == 1 && gatherTick > 0 {
			time.Sleep(gatherTick)
			sh.mu.Lock()
			if sh.closed {
				sh.mu.Unlock()
				return
			}
			if sh.err == nil && sh.lsn > target {
				target = sh.lsn
			}
			sh.mu.Unlock()
		}

		err := walSync(sh.f)

		sh.mu.Lock()
		if err != nil {
			sh.err = err
		} else if target > sh.durable {
			p.fsyncs.Add(1)
			p.syncedBatches.Add(target - sh.durable)
			sh.durable = target
		}
		sh.notifyLocked()
		sh.mu.Unlock()
	}
}

// Sync implements Persistence: block until every shard the token touches
// has made its record durable. Under SyncNone (or for operations that
// logged nothing) there is nothing to wait for; under SyncAlways the
// append already synced and the wait is free; under SyncGroupCommit this
// is where concurrent committers queue behind the shard writer's next
// fsync.
func (p *filePersistence) Sync(tok SyncToken) error {
	if p.cfg.Sync == SyncNone {
		return nil
	}
	var marks fileSyncToken
	switch t := tok.(type) {
	case walMark:
		marks = fileSyncToken{t}
	case fileSyncToken:
		marks = t
	}
	var start time.Time
	var firstErr error
	for _, m := range marks {
		sh := p.shards[m.shard]
		sh.mu.Lock()
		if sh.durable >= m.lsn {
			sh.mu.Unlock()
			continue
		}
		if sh.err != nil || sh.closed {
			err := sh.err
			if err == nil {
				err = ErrStoreClosed
			}
			sh.mu.Unlock()
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		w := &syncWaiter{lsn: m.lsn, done: make(chan error, 1)}
		sh.waiters = append(sh.waiters, w)
		sh.mu.Unlock()
		if start.IsZero() {
			start = time.Now()
		}
		if err := <-w.done; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if !start.IsZero() {
		p.syncWaits.Add(1)
		p.syncWaitNanos.Add(uint64(time.Since(start)))
	}
	return firstErr
}

// CompactDue implements Persistence: true when any shard has logged
// SnapshotEvery batches since its last snapshot.
func (p *filePersistence) CompactDue() bool {
	for _, sh := range p.shards {
		sh.mu.Lock()
		due := sh.batches >= p.cfg.SnapshotEvery
		sh.mu.Unlock()
		if due {
			return true
		}
	}
	return false
}

// Compact implements Persistence: snapshot only the shards whose batch
// count is due, so one hot path rewrites 1/K of the state instead of
// forcing a whole-log compaction.
func (p *filePersistence) Compact(state PersistentState) error {
	return p.writeSnapshots(state, false)
}

// Snapshot implements Persistence: compact every shard (the open/close
// path), then delete any files a foreign layout left behind — their
// contents are now durably captured in the configured layout.
func (p *filePersistence) Snapshot(state PersistentState) error {
	return p.writeSnapshots(state, true)
}

// writeSnapshots splits state by path-hash and writes the selected shards'
// snapshot files concurrently, each temp+fsync+rename+dir-fsync, then
// resets their WALs.
func (p *filePersistence) writeSnapshots(state PersistentState, full bool) error {
	k := len(p.shards)
	due := make([]bool, k)
	var wrote bool
	for i, sh := range p.shards {
		due[i] = full
		if !full {
			sh.mu.Lock()
			due[i] = sh.batches >= p.cfg.SnapshotEvery
			sh.mu.Unlock()
		}
		wrote = wrote || due[i]
	}
	imgs := gatherShardImages(state, due)

	errs := make([]error, k)
	var wg sync.WaitGroup
	for i, sh := range p.shards {
		if !due[i] {
			continue
		}
		hdr := snapshotWire{
			Schema:     SnapshotSchema,
			Generation: state.Generation,
			Epoch:      state.Epoch,
			FloorEpoch: state.FloorEpoch,
			Shard:      i,
			Shards:     k,
		}
		wg.Add(1)
		go func(sh *walShard, hdr snapshotWire, img *shardImage) {
			defer wg.Done()
			errs[sh.idx] = p.writeShardSnapshot(sh, hdr, img)
		}(sh, hdr, &imgs[i])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if wrote {
		p.compactions.Add(1)
	}
	if full && len(p.stale) > 0 {
		// Every byte of the foreign layout now lives in the configured
		// shards' durable snapshots; dropping the leftovers ends the
		// migration. An earlier crash just reruns the newest-wins merge.
		for _, name := range p.stale {
			if err := os.Remove(filepath.Join(p.cfg.Dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
				return fmt.Errorf("ifsvr: removing migrated %s: %w", name, err)
			}
		}
		p.stale = nil
		if err := syncDir(p.cfg.Dir); err != nil {
			return err
		}
	}
	return nil
}

// shardImage is one shard's part of a PersistentState in the order its
// snapshot file spells it, each document and journal entry already in its
// wire bytes.
type shardImage struct {
	docs    []imageDoc     // path order
	retired []imageRetired // path order
	journal [][]byte       // journal order
}

// imageDoc is one document of a shardImage and the wire bytes of its
// version.
type imageDoc struct {
	path    string
	doc     Document
	payload []byte
}

// imageRetired is one retirement floor of a shardImage.
type imageRetired struct {
	path    string
	version uint64
}

// gatherShardImages splits state by path-hash into the images of the due
// shards (the others stay empty). Wire bytes are the ones each commit
// already marshalled: a journal entry's Payload, and for a document the
// Payload of the newest journal entry with its path, epoch and version.
// encodeEventPayload runs only for an entry or document with no such
// bytes — a state built by a test or another backend, or a document
// older than the journal.
func gatherShardImages(state PersistentState, due []bool) []shardImage {
	k := len(due)
	imgs := make([]shardImage, k)
	for path, d := range state.Docs {
		if i := shardOf(path, k); due[i] {
			imgs[i].docs = append(imgs[i].docs, imageDoc{path: path, doc: d})
		}
	}
	for path, v := range state.Retired {
		if i := shardOf(path, k); due[i] {
			imgs[i].retired = append(imgs[i].retired, imageRetired{path: path, version: v})
		}
	}
	for i := range imgs {
		slices.SortFunc(imgs[i].docs, func(a, b imageDoc) int { return strings.Compare(a.path, b.path) })
		slices.SortFunc(imgs[i].retired, func(a, b imageRetired) int { return strings.Compare(a.path, b.path) })
	}
	// Newest first, so the first journal entry matching a document is its
	// newest; each shard's journal is reversed back into order below.
	for j := len(state.Journal) - 1; j >= 0; j-- {
		ev := &state.Journal[j]
		i := shardOf(ev.Path, k)
		if !due[i] {
			continue
		}
		payload := ev.Payload
		if payload == nil {
			payload = encodeEventPayload(ev.Path, ev.Doc)
		}
		img := &imgs[i]
		img.journal = append(img.journal, payload)
		n, ok := slices.BinarySearchFunc(img.docs, ev.Path, func(d imageDoc, path string) int { return strings.Compare(d.path, path) })
		if !ok {
			continue
		}
		if d := &img.docs[n]; d.payload == nil && d.doc.Epoch == ev.Doc.Epoch && d.doc.Version == ev.Doc.Version {
			d.payload = payload
		}
	}
	for i := range imgs {
		slices.Reverse(imgs[i].journal)
		for n := range imgs[i].docs {
			if d := &imgs[i].docs[n]; d.payload == nil {
				d.payload = encodeEventPayload(d.path, d.doc)
			}
		}
	}
	return imgs
}

// writeSnapshotImage streams one shard's snapshot file into w: the header
// fields of hdr (its Docs, Retired and Journal are ignored) and the
// contents of img, byte for byte what json.Marshal renders for the
// equivalent snapshotWire — "docs" null when empty, "shards", "retired"
// and "journal" omitted when empty, "retired" in key order — with the
// document and journal objects spliced from their wire bytes instead of
// re-escaped. The caller flushes w.
func writeSnapshotImage(w *bufio.Writer, hdr snapshotWire, img *shardImage) {
	b := w.AvailableBuffer()
	b = append(b, `{"schema":`...)
	b = appendJSONString(b, hdr.Schema)
	b = append(b, `,"generation":`...)
	b = strconv.AppendUint(b, hdr.Generation, 10)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, hdr.Epoch, 10)
	b = append(b, `,"floor_epoch":`...)
	b = strconv.AppendUint(b, hdr.FloorEpoch, 10)
	b = append(b, `,"shard":`...)
	b = strconv.AppendInt(b, int64(hdr.Shard), 10)
	if hdr.Shards != 0 {
		b = append(b, `,"shards":`...)
		b = strconv.AppendInt(b, int64(hdr.Shards), 10)
	}
	b = append(b, `,"lsn":`...)
	b = strconv.AppendUint(b, hdr.Lsn, 10)
	if len(img.docs) == 0 {
		b = append(b, `,"docs":null`...)
		w.Write(b)
	} else {
		b = append(b, `,"docs":[`...)
		w.Write(b)
		for n, d := range img.docs {
			if n > 0 {
				w.WriteByte(',')
			}
			w.Write(d.payload)
		}
		w.WriteByte(']')
	}
	if len(img.retired) > 0 {
		w.WriteString(`,"retired":{`)
		for n, r := range img.retired {
			b := w.AvailableBuffer()
			if n > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, r.path)
			b = append(b, ':')
			b = strconv.AppendUint(b, r.version, 10)
			w.Write(b)
		}
		w.WriteByte('}')
	}
	if len(img.journal) > 0 {
		w.WriteString(`,"journal":[`)
		for n, payload := range img.journal {
			if n > 0 {
				w.WriteByte(',')
			}
			w.Write(payload)
		}
		w.WriteByte(']')
	}
	w.WriteByte('}')
}

// appendJSONString writes s as a JSON string literal with encoding/json's
// default escaping: the short escapes, \u00XX for the remaining control
// bytes and for < > &, \u2028 and \u2029, and \ufffd for invalid UTF-8.
func appendJSONString(buf []byte, s string) []byte {
	const hex = "0123456789abcdef"
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch c {
			case '"', '\\':
				buf = append(buf, '\\', c)
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			buf = append(buf, s[start:i]...)
			buf = append(buf, `\ufffd`...)
			start = i + size
		case r == 0x2028 || r == 0x2029:
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hex[r&0xF])
			start = i + size
		}
		i += size
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}

// snapshotWriters pools the snapshot files' write buffers: a cadence
// snapshot streams each document and journal entry through one 64 KiB
// buffer (entries larger than it go to the file directly) instead of
// building the file in memory.
var snapshotWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 64<<10) }}

// writeShardSnapshot installs one shard's snapshot (temp, fsync, rename,
// dir fsync) and resets its WAL. The snapshot records the shard's current
// lsn, so a crash between the rename and the WAL reset leaves records
// recovery skips by watermark. The write happens outside the shard lock —
// appends are excluded by the store's writer lock, not this one — so Sync
// waiters on other shards are never blocked behind snapshot IO here.
func (p *filePersistence) writeShardSnapshot(sh *walShard, hdr snapshotWire, img *shardImage) error {
	sh.mu.Lock()
	hdr.Lsn = sh.lsn
	sh.mu.Unlock()
	snapName := shardSnapshotFile(sh.idx)
	tmp, err := os.CreateTemp(p.cfg.Dir, snapName+".tmp*")
	if err != nil {
		return fmt.Errorf("ifsvr: creating snapshot temp: %w", err)
	}
	tmpName := tmp.Name()
	w := snapshotWriters.Get().(*bufio.Writer)
	w.Reset(tmp)
	writeSnapshotImage(w, hdr, img)
	err = w.Flush()
	w.Reset(nil)
	snapshotWriters.Put(w)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("ifsvr: writing snapshot shard %d: %w", sh.idx, err)
	}
	if err := os.Rename(tmpName, filepath.Join(p.cfg.Dir, snapName)); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("ifsvr: installing snapshot shard %d: %w", sh.idx, err)
	}
	// The rename itself must survive power loss, not just the temp file's
	// contents: fsync the directory.
	if err := syncDir(p.cfg.Dir); err != nil {
		return err
	}
	if err := sh.f.Truncate(0); err != nil {
		return fmt.Errorf("ifsvr: resetting WAL shard %d: %w", sh.idx, err)
	}
	if _, err := sh.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("ifsvr: seeking WAL shard %d: %w", sh.idx, err)
	}
	sh.mu.Lock()
	sh.started = false
	sh.batches = 0
	if sh.lsn > sh.durable {
		sh.durable = sh.lsn // the snapshot made every logged record durable
	}
	sh.err = nil // a reset log is appendable again
	sh.notifyLocked()
	sh.mu.Unlock()
	return nil
}

// syncDir fsyncs a directory so renames and removals inside it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("ifsvr: opening dir for fsync: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("ifsvr: fsyncing dir: %w", err)
	}
	return nil
}

// Stats implements Persistence.
func (p *filePersistence) Stats() PersistStats {
	ps := PersistStats{
		Policy:          p.cfg.Sync.String(),
		Shards:          len(p.shards),
		LastLSN:         make([]uint64, len(p.shards)),
		DurableLSN:      make([]uint64, len(p.shards)),
		Fsyncs:          p.fsyncs.Load(),
		SyncedBatches:   p.syncedBatches.Load(),
		SyncWaits:       p.syncWaits.Load(),
		SyncWaitNanos:   p.syncWaitNanos.Load(),
		Compactions:     p.compactions.Load(),
		MigratedSources: p.migrated,
	}
	for i, sh := range p.shards {
		sh.mu.Lock()
		ps.LastLSN[i] = sh.lsn
		ps.DurableLSN[i] = sh.durable
		sh.mu.Unlock()
	}
	return ps
}

// Close implements Persistence: stop the shard writers, wake any waiters,
// and close the WAL handles.
func (p *filePersistence) Close() error {
	for _, sh := range p.shards {
		sh.mu.Lock()
		sh.closed = true
		sh.cond.Broadcast()
		sh.notifyLocked()
		sh.mu.Unlock()
	}
	p.wg.Wait()
	var firstErr error
	for _, sh := range p.shards {
		if err := sh.f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
