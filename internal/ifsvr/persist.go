package ifsvr

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"livedev/internal/jsonstr"
)

// Store persistence: one snapshot plus one write-ahead log.
//
// The durable state of a store is a compacted snapshot (snapshot.json)
// plus a write-ahead log (wal.log) of the commit batches and retirements
// since that snapshot. Every logged operation takes the next log sequence
// number, so lsn order is commit order, and recovery — the snapshot, then
// the longest valid prefix of the log — always yields a prefix of commit
// history. Open bumps the generation and rewrites a fresh snapshot, so a
// restarted Interface Server resumes at an epoch strictly past its
// pre-restart epoch and still answers reconnecting watchers from the
// journal (event: replay) instead of forcing a snapshot stampede.

// SnapshotSchema identifies the snapshot file format.
const SnapshotSchema = "livedev/ifsvr-snapshot/v3"

// DefaultSnapshotEvery is how many operations the store logs between
// compacted snapshots.
const DefaultSnapshotEvery = 64

// SyncPolicy selects what a committed publication's ack means for
// durability (see StoreConfig.Sync).
type SyncPolicy int

const (
	// SyncNone acks after the WAL write hits the OS page cache (no fsync):
	// a process crash loses nothing, a power loss can lose the tail.
	SyncNone SyncPolicy = iota
	// SyncGroupCommit acks only after an fsync that covers the record.
	// Concurrent committers share that fsync (group commit): the ack is
	// honest and the fsync cost is amortized across the group.
	SyncGroupCommit
)

// String returns the flag spelling of the policy.
func (sp SyncPolicy) String() string {
	switch sp {
	case SyncNone:
		return "none"
	case SyncGroupCommit:
		return "group"
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
	}
	return SyncNone, fmt.Errorf("ifsvr: unknown sync policy %q (want none or group)", s)
}

// PersistentState is everything a store needs to resume where a previous
// incarnation left off.
type PersistentState struct {
	// Generation identifies store incarnations over this state: the
	// recovered value belongs to the incarnation that wrote it (0 when
	// nothing was recovered), and Open moves past it.
	Generation uint64
	// Epoch is the last committed epoch.
	Epoch uint64
	// FloorEpoch is the replay-journal floor: the journal covers epochs in
	// (FloorEpoch, Epoch].
	FloorEpoch uint64
	// Docs are the committed documents by path, each as its newest
	// committed event: the Document, Content included, and the Payload its
	// commit (or, after a restart or on a replica, its decode) encoded.
	Docs map[string]StoreEvent
	// Retired maps removed paths to their last committed version, so a
	// republication resumes the sequence.
	Retired map[string]uint64
	// Journal is the bounded replay journal, commit order. A store's own
	// entries carry Payload and the metadata but no Doc.Content (the text
	// is in Payload); Load returns them with both.
	Journal []StoreEvent
}

// PersistStats are the durability counters of a store's log; all fields
// are cumulative since open.
type PersistStats struct {
	// Policy is the backend's sync policy ("none" or "group").
	Policy string
	// LastLSN is the last appended log sequence number.
	LastLSN uint64
	// DurableLSN is the durability watermark: the last lsn known to have
	// survived an fsync (or be covered by a snapshot).
	DurableLSN uint64
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
	// Compactions counts snapshots written.
	Compactions uint64
}

// SyncWaitMean is the mean time an acked commit spent waiting on fsync.
func (ps PersistStats) SyncWaitMean() time.Duration {
	if ps.SyncWaits == 0 {
		return 0
	}
	return time.Duration(ps.SyncWaitNanos / ps.SyncWaits)
}

// snapshotWire is the JSON layout of the snapshot file, as Load parses it.
// Documents and journal entries use the same wire object as the SSE
// transport and the WAL, keyed by path. The writer does not marshal it:
// writeSnapshotImage streams the same bytes from the commit-time wire
// payloads, and a test holds it to json.Marshal of this struct.
type snapshotWire struct {
	Schema     string `json:"schema"`
	Generation uint64 `json:"generation"`
	Epoch      uint64 `json:"epoch"`
	FloorEpoch uint64 `json:"floor_epoch"`
	// Lsn is the last logged operation this snapshot covers. Recovery
	// skips WAL records at or below it, so replay stays idempotent when a
	// crash leaves already-snapshotted records in the log.
	Lsn     uint64            `json:"lsn"`
	Docs    []streamWire      `json:"docs"`
	Retired map[string]uint64 `json:"retired,omitempty"`
	Journal []streamWire      `json:"journal,omitempty"`
}

// The data directory's two files.
const (
	snapshotFile = "snapshot.json"
	walFile      = "wal.log"
)

// isSnapshotTemp reports whether name is the temp file of a snapshot
// write (os.CreateTemp over snapshotFile+".tmp*", or the sharded layout's
// snapshot-NN.json.tmp*).
func isSnapshotTemp(name string) bool {
	ok, _ := filepath.Match("snapshot*.json.tmp*", name)
	return ok
}

// walBufKeep caps the encode buffer kept between appends, so one rare huge
// batch does not stay pinned.
const walBufKeep = 1 << 20

// filePersistence is a durable store's log: one snapshot and one WAL under
// a directory. Snapshots are written to a temp file, fsynced, renamed into
// place, and the directory is fsynced — so a crash mid-snapshot leaves the
// previous one intact and a completed rename survives power loss.
//
// Load, Append, AppendRemove, Snapshot and Close are never concurrent: the
// store serializes them on its writer lock (the appends under the state
// lock too; the cadence Snapshot deliberately off it, so document readers
// never wait on snapshot IO). Sync and Stats are concurrent: the store
// calls Sync after releasing its locks so concurrent committers can share
// one fsync. The log takes no store lock and never calls back into the
// store, and it runs no goroutine of its own.
//
// mu guards the log state; no fsync runs under it. synced is broadcast
// when an fsync ends, a snapshot raises the durable watermark, the log
// fails, or it closes. A broadcast wakes every parked committer once per
// fsync: those the fsync covered return, and of the rest the last to run
// starts the next fsync while the others park again.
type filePersistence struct {
	cfg StoreConfig
	f   *os.File
	// fsync makes every record written to f durable. It is walSync; only
	// this package's tests set another, to hold or fail an fsync.
	fsync func(*os.File) error

	mu      sync.Mutex
	synced  *sync.Cond
	lsn     uint64
	durable uint64
	syncing bool  // a committer's fsync is in flight
	parked  int   // committers waiting on synced
	woken   int   // committers a wake counted that have not yet run
	batches int   // records appended since the last snapshot
	err     error // sticky append/fsync error; cleared by a successful snapshot
	closed  bool
	buf     []byte // record encode buffer, reused across appends

	fsyncs        atomic.Uint64
	syncedBatches atomic.Uint64
	syncWaits     atomic.Uint64
	syncWaitNanos atomic.Uint64
	compactions   atomic.Uint64
}

// openFilePersistence opens (creating if needed) the snapshot+WAL layout
// under cfg.Dir, with cfg's Sync and SnapshotEvery.
func openFilePersistence(cfg StoreConfig) (*filePersistence, error) {
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("ifsvr: creating data dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(cfg.Dir, walFile), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ifsvr: opening WAL: %w", err)
	}
	p := &filePersistence{cfg: cfg, f: f, fsync: walSync}
	p.synced = sync.NewCond(&p.mu)
	return p, nil
}

// Load recovers the persisted state: the snapshot, then the WAL's longest
// valid prefix on top, skipping records the snapshot's lsn watermark
// already covers. Every recovered version is encoded once, here: a
// document or journal entry from the snapshot as it is read, a WAL
// record's events as they are decoded. The WAL is truncated to the valid
// prefix so later appends extend valid data, never garbage.
func (p *filePersistence) Load() (PersistentState, error) {
	if err := p.scanDir(); err != nil {
		return PersistentState{}, err
	}
	state := PersistentState{
		Docs:    make(map[string]StoreEvent),
		Retired: make(map[string]uint64),
	}
	var lsn uint64
	data, err := os.ReadFile(filepath.Join(p.cfg.Dir, snapshotFile))
	switch {
	case errors.Is(err, os.ErrNotExist):
		// No snapshot yet (first open, or a WAL-only crash window).
	case err != nil:
		return PersistentState{}, fmt.Errorf("ifsvr: reading %s: %w", snapshotFile, err)
	default:
		var snap snapshotWire
		if err := json.Unmarshal(data, &snap); err != nil {
			return PersistentState{}, fmt.Errorf("ifsvr: parsing %s: %w", snapshotFile, err)
		}
		if snap.Schema != SnapshotSchema {
			return PersistentState{}, fmt.Errorf("ifsvr: %s schema %q, want %q", snapshotFile, snap.Schema, SnapshotSchema)
		}
		state.Generation = snap.Generation
		state.Epoch = snap.Epoch
		state.FloorEpoch = snap.FloorEpoch
		lsn = snap.Lsn
		for _, w := range snap.Docs {
			state.Docs[w.Path] = wireEvent(w)
		}
		maps.Copy(state.Retired, snap.Retired)
		for _, w := range snap.Journal {
			state.Journal = append(state.Journal, wireEvent(w))
		}
	}

	if _, err := p.f.Seek(0, io.SeekStart); err != nil {
		return PersistentState{}, fmt.Errorf("ifsvr: seeking %s: %w", walFile, err)
	}
	img, err := io.ReadAll(p.f)
	if err != nil {
		return PersistentState{}, fmt.Errorf("ifsvr: reading %s: %w", walFile, err)
	}
	recs, valid := scanWAL(img)
	snapLSN := lsn
	applied := 0
	for _, rec := range recs {
		switch rec.kind {
		case walKindCommit:
			recLSN, evs, derr := decodeCommitPayload(rec.payload)
			if derr != nil || len(evs) == 0 {
				continue // CRC-valid but semantically bad; skip, keep scanning
			}
			if recLSN <= snapLSN {
				// An operation the snapshot already covers (crash between
				// snapshot rename and WAL reset): replay is idempotent.
				continue
			}
			lsn = recLSN
			applied++
			for _, ev := range evs {
				state.Docs[ev.Path] = ev
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
			lsn = rm.Lsn
			applied++
			delete(state.Docs, rm.Path)
			state.Retired[rm.Path] = rm.Version
		}
	}
	if valid < len(img) {
		// Torn or corrupt tail: keep the longest valid prefix.
		if err := p.f.Truncate(int64(valid)); err != nil {
			return PersistentState{}, fmt.Errorf("ifsvr: truncating torn tail of %s: %w", walFile, err)
		}
	}
	if _, err := p.f.Seek(int64(valid), io.SeekStart); err != nil {
		return PersistentState{}, fmt.Errorf("ifsvr: seeking %s: %w", walFile, err)
	}
	// Fresh appends extend, never collide with, records a crash may have
	// left behind the next snapshot's lsn watermark.
	p.mu.Lock()
	p.lsn = lsn
	p.durable = lsn
	p.batches = applied
	p.mu.Unlock()
	return state, nil
}

// scanDir deletes the temp files of snapshots a crash interrupted — the
// rename is a snapshot's commit point, so a leftover temp never holds
// committed state, and nothing else would ever remove it.
func (p *filePersistence) scanDir() error {
	entries, err := os.ReadDir(p.cfg.Dir)
	if err != nil {
		return fmt.Errorf("ifsvr: listing data dir: %w", err)
	}
	for _, e := range entries {
		if name := e.Name(); isSnapshotTemp(name) {
			if err := os.Remove(filepath.Join(p.cfg.Dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
				return fmt.Errorf("ifsvr: removing interrupted snapshot %s: %w", name, err)
			}
		}
	}
	return nil
}

// Append logs one committed batch as one commit record under the next
// lsn, which it returns for Sync. The write is buffered (page cache);
// durability is Sync's job.
func (p *filePersistence) Append(events []StoreEvent) (uint64, error) {
	return p.append(func(buf []byte, lsn uint64) []byte {
		return appendCommitRecord(buf, lsn, events)
	})
}

// AppendRemove logs one retirement record, returning its lsn.
func (p *filePersistence) AppendRemove(path string, version uint64) (uint64, error) {
	return p.append(func(buf []byte, lsn uint64) []byte {
		return appendRemoveRecord(buf, lsn, path, version)
	})
}

// append logs one record under the next lsn. enc frames the record for
// lsn onto the reused encode buffer, and one write(2) hands it to the
// kernel. A record over walMaxRecord is refused before anything is
// written — recovery would read it as a torn tail and drop every later
// record with it — so that error is not sticky. A write error is:
// recovery stops at the first bad record, so appending past a torn one
// would only log bytes replay can never reach. A later successful
// snapshot resets the file and clears the error.
func (p *filePersistence) append(enc func(buf []byte, lsn uint64) []byte) (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, ErrStoreClosed
	}
	if p.err != nil {
		return 0, p.err
	}
	lsn := p.lsn + 1
	buf := enc(p.buf[:0], lsn)
	if n := len(buf) - walHeaderLen; n > walMaxRecord {
		p.keepBuf(buf)
		return 0, fmt.Errorf("ifsvr: WAL record of %d bytes exceeds the %d-byte limit", n, walMaxRecord)
	}
	_, err := p.f.Write(buf)
	p.keepBuf(buf)
	if err != nil {
		p.failLocked(err)
		return 0, err
	}
	p.lsn = lsn
	p.batches++
	return lsn, nil
}

// keepBuf retains buf as the encode buffer for the next append, unless a
// huge batch grew it past walBufKeep. Caller holds p.mu; the write(2) has
// already copied the bytes into the kernel.
func (p *filePersistence) keepBuf(buf []byte) {
	if cap(buf) > walBufKeep {
		p.buf = nil
		return
	}
	p.buf = buf[:0]
}

// failLocked makes err the log's sticky error and fails every Sync waiter
// it strands. Caller holds p.mu.
func (p *filePersistence) failLocked(err error) {
	p.err = err
	p.wakeLocked()
}

// wakeLocked wakes every parked committer and counts it as woken until it
// has run. Caller holds p.mu.
func (p *filePersistence) wakeLocked() {
	p.woken += p.parked
	p.parked = 0
	p.synced.Broadcast()
}

// Sync blocks until the record lsn is durable: at once under SyncNone (or
// for lsn 0), else until an fsync that began after the record was written
// has ended, or a snapshot covered it. It is the log's one fsync site, and
// committers share it (leader-based group commit): the first whose record
// is not yet durable captures the last lsn, fsyncs outside every lock,
// raises the durable watermark to what it captured, and wakes the
// waiters. Committers that arrive while an fsync runs wait for it;
// records appended meanwhile ride the next, which one of their committers
// starts. A sticky error or Close answers every waiter its record's
// durability does not.
//
// The invariant: every committer a wake counts as woken runs once, and
// while one has not, no fsync starts. The lead passes to the last woken
// committer, or, if it is covered, to the parked it wakes again; one that
// returned and commits again cannot take it from those an fsync's end
// woke (with one P it would lead each fsync nearly alone).
func (p *filePersistence) Sync(lsn uint64) error {
	if p.cfg.Sync == SyncNone || lsn == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.durable >= lsn {
		return nil
	}
	start := time.Now()
	defer func() {
		p.syncWaits.Add(1)
		p.syncWaitNanos.Add(uint64(time.Since(start)))
	}()
	for p.durable < lsn {
		switch {
		case p.err != nil:
			return p.err
		case p.closed:
			return ErrStoreClosed
		case p.syncing || p.woken > 0:
			p.parked++
			p.synced.Wait()
			p.woken--
			continue
		}
		p.syncing = true
		target := p.lsn
		p.mu.Unlock()
		err := p.fsync(p.f)
		p.mu.Lock()
		p.syncing = false
		if err != nil {
			p.err = err
		} else if target > p.durable {
			p.fsyncs.Add(1)
			p.syncedBatches.Add(target - p.durable)
			p.durable = target
		}
		p.wakeLocked()
	}
	if p.woken == 0 && p.parked > 0 && !p.syncing {
		p.wakeLocked() // the last woken committer is covered: the parked lead
	}
	return nil
}

// CompactDue reports whether the log holds SnapshotEvery records since the
// last snapshot: a cadence snapshot is due.
func (p *filePersistence) CompactDue() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.batches >= p.cfg.SnapshotEvery
}

// snapshotImage is a PersistentState in the order its snapshot file spells
// it, each document and journal entry as its wire bytes.
type snapshotImage struct {
	docs    [][]byte       // path order
	retired []imageRetired // path order
	journal [][]byte       // journal order
}

// imageRetired is one retirement floor of a snapshotImage.
type imageRetired struct {
	path    string
	version uint64
}

// gatherImage orders state for its snapshot file. Every document and
// journal entry is spliced from the Payload its commit (or recovery, or
// replicated apply) encoded; one without those bytes cannot be written,
// and is an error.
func gatherImage(state PersistentState) (snapshotImage, error) {
	img := snapshotImage{docs: make([][]byte, 0, len(state.Docs)), journal: make([][]byte, len(state.Journal))}
	for _, path := range slices.Sorted(maps.Keys(state.Docs)) {
		ev := state.Docs[path]
		if ev.Payload == nil {
			return snapshotImage{}, fmt.Errorf("ifsvr: document %s at epoch %d has no wire bytes", path, ev.Doc.Epoch)
		}
		img.docs = append(img.docs, ev.Payload)
	}
	for path, v := range state.Retired {
		img.retired = append(img.retired, imageRetired{path: path, version: v})
	}
	slices.SortFunc(img.retired, func(a, b imageRetired) int { return strings.Compare(a.path, b.path) })
	for j, ev := range state.Journal {
		if ev.Payload == nil {
			return snapshotImage{}, fmt.Errorf("ifsvr: journal entry %s at epoch %d has no wire bytes", ev.Path, ev.Doc.Epoch)
		}
		img.journal[j] = ev.Payload
	}
	return img, nil
}

// writeSnapshotImage streams the snapshot file into w: the header fields
// of hdr (its Docs, Retired and Journal are ignored) and the contents of
// img, byte for byte what json.Marshal renders for the equivalent
// snapshotWire — "docs" null when empty, "retired" and "journal" omitted
// when empty, "retired" in key order — with the document and journal
// objects spliced from their wire bytes instead of re-escaped. The caller
// flushes w.
func writeSnapshotImage(w *bufio.Writer, hdr snapshotWire, img *snapshotImage) {
	b := w.AvailableBuffer()
	b = append(b, `{"schema":`...)
	b = jsonstr.Append(b, hdr.Schema)
	b = append(b, `,"generation":`...)
	b = strconv.AppendUint(b, hdr.Generation, 10)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, hdr.Epoch, 10)
	b = append(b, `,"floor_epoch":`...)
	b = strconv.AppendUint(b, hdr.FloorEpoch, 10)
	b = append(b, `,"lsn":`...)
	b = strconv.AppendUint(b, hdr.Lsn, 10)
	if len(img.docs) == 0 {
		b = append(b, `,"docs":null`...)
		w.Write(b)
	} else {
		b = append(b, `,"docs":[`...)
		w.Write(b)
		for n, payload := range img.docs {
			if n > 0 {
				w.WriteByte(',')
			}
			w.Write(payload)
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
			b = jsonstr.Append(b, r.path)
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

// snapshotWriters pools the snapshot file's write buffers: a cadence
// snapshot streams each document and journal entry through one 64 KiB
// buffer (entries larger than it go to the file directly) instead of
// building the file in memory.
var snapshotWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 64<<10) }}

// Snapshot installs state as the snapshot (temp, fsync, rename, dir fsync)
// and resets the WAL, so recovery cost stays bounded. The snapshot records
// the current lsn, so a crash between the rename and the WAL reset leaves
// records recovery skips by watermark. The write happens outside p.mu —
// appends are excluded by the store's writer lock, not this one — so Sync
// waiters are never blocked behind snapshot IO.
func (p *filePersistence) Snapshot(state PersistentState) error {
	p.mu.Lock()
	hdr := snapshotWire{
		Schema:     SnapshotSchema,
		Generation: state.Generation,
		Epoch:      state.Epoch,
		FloorEpoch: state.FloorEpoch,
		Lsn:        p.lsn,
	}
	p.mu.Unlock()
	img, err := gatherImage(state)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(p.cfg.Dir, snapshotFile+".tmp*")
	if err != nil {
		return fmt.Errorf("ifsvr: creating snapshot temp: %w", err)
	}
	tmpName := tmp.Name()
	w := snapshotWriters.Get().(*bufio.Writer)
	w.Reset(tmp)
	writeSnapshotImage(w, hdr, &img)
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
		return fmt.Errorf("ifsvr: writing snapshot: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(p.cfg.Dir, snapshotFile)); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("ifsvr: installing snapshot: %w", err)
	}
	// The rename itself must survive power loss, not just the temp file's
	// contents: fsync the directory.
	if err := syncDir(p.cfg.Dir); err != nil {
		return err
	}
	if err := p.f.Truncate(0); err != nil {
		return fmt.Errorf("ifsvr: resetting WAL: %w", err)
	}
	if _, err := p.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("ifsvr: seeking WAL: %w", err)
	}
	p.mu.Lock()
	p.batches = 0
	if p.lsn > p.durable {
		p.durable = p.lsn // the snapshot made every logged record durable
	}
	p.err = nil // a reset log is appendable again
	p.wakeLocked()
	p.mu.Unlock()
	p.compactions.Add(1)
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

// Stats returns the log's durability counters.
func (p *filePersistence) Stats() PersistStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PersistStats{
		Policy:        p.cfg.Sync.String(),
		LastLSN:       p.lsn,
		DurableLSN:    p.durable,
		Fsyncs:        p.fsyncs.Load(),
		SyncedBatches: p.syncedBatches.Load(),
		SyncWaits:     p.syncWaits.Load(),
		SyncWaitNanos: p.syncWaitNanos.Load(),
		Compactions:   p.compactions.Load(),
	}
}

// Close answers every Sync waiter its record's durability does not with
// ErrStoreClosed, waits for an fsync in flight to end, and closes the WAL.
// No fsync starts after it.
func (p *filePersistence) Close() error {
	p.mu.Lock()
	p.closed = true
	p.wakeLocked()
	for p.syncing {
		p.synced.Wait()
	}
	p.mu.Unlock()
	return p.f.Close()
}
