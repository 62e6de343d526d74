package ifsvr

import (
	"errors"
	"maps"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"time"
)

// ErrStoreClosed reports an operation on a closed publication store.
var ErrStoreClosed = errors.New("ifsvr: publication store closed")

// DefaultHistoryLen is the journal capacity a store is created with: how
// many committed versions (across all paths) are retained for watcher
// catch-up.
const DefaultHistoryLen = 256

// StoreEvent is one committed publication.
//
// A version is encoded at most once per process: at commit on a leader
// (PublishVersioned), and at decode during recovery (the WAL, the
// snapshot); a replica keeps the "data:" bytes it read. Every later reader
// — the WAL append, the journal, each stream's events and snapshot resets,
// the cadence snapshot — splices those bytes.
//
// Taps (Subscribe) and the store's per-path newest version
// (PersistentState.Docs) carry the event with Content and Payload. A
// journal entry (ReplayEventsInto, PersistentState.Journal) carries Payload
// and the metadata but no Doc.Content: read the text from Payload, or use
// Get for the current version.
type StoreEvent struct {
	// Path is the document path that committed.
	Path string
	// Doc is the committed document (its Version and Epoch are final).
	Doc Document
	// Payload is the event's shared wire encoding: the JSON object that is
	// both the SSE "data:" line every streaming watcher receives and the
	// element of the WAL commit record. It is encoded once (see above) and
	// fanned out by reference — receivers must treat it as immutable.
	Payload []byte
}

// StoreOp is one logged store operation, as a tap (Subscribe) receives it:
// either a committed publication batch (Events non-empty) or a retirement
// (RemovePath non-empty).
type StoreOp struct {
	// Events is the committed batch, in commit order, payloads included.
	Events []StoreEvent
	// RemovePath is the retired path (empty for a commit batch).
	RemovePath string
	// RemoveVersion is the retired path's last committed version — the
	// floor a republication resumes from.
	RemoveVersion uint64
}

// StoreStats counts store activity; all fields are cumulative.
type StoreStats struct {
	// Publishes counts PublishVersioned calls the store took (not those a
	// closed store or a replica dropped).
	Publishes uint64
	// Commits counts committed document versions (one per fan-out event).
	Commits uint64
	// Batches counts commit batches (one per publish, one per replicated
	// commit record).
	Batches uint64
	// Replays counts journal reads (a connecting stream's catch-up, a held
	// stream's per-commit collect) the journal fully covered.
	Replays uint64
	// ReplayMisses counts journal reads the journal no longer covered —
	// each forces the reader onto the full-snapshot fallback.
	ReplayMisses uint64
	// WALAppends counts commit batches (and retirements) durably logged.
	WALAppends uint64
	// Snapshots counts compacted snapshots written.
	Snapshots uint64
	// PersistErrors counts failed persistence operations — the store keeps
	// serving from memory, but durability of the failed batch is lost.
	PersistErrors uint64
	// Epoch is the current commit epoch (gauge, not cumulative).
	Epoch uint64
	// Generation is this store incarnation's restart generation.
	Generation uint64
	// JournalDepth is the number of events currently retained in the
	// replay journal (gauge, not cumulative).
	JournalDepth int
	// Durability is the log's own counter block (lsns, fsyncs,
	// group-commit batch sizes, fsync lag); nil for an in-memory store.
	Durability *PersistStats
	// Replication is the replication counter block (role, epochs, lag,
	// reconnects): a follower's, or on any other store the leader's, since
	// every store can be followed.
	Replication *ReplicationStats
	// Fanout is the delivery plane's counter block: registered watchers,
	// commit-time wakeups, flush batch sizes, and the backpressure valves
	// (evictions, snapshot resets).
	Fanout FanoutStats
}

// Store is the event-driven publication core: a versioned interface-document
// store with epoch-numbered snapshots, tap and watcher fan-out, and an
// epoch-indexed journal for watcher catch-up. It is the one document store:
// every binding publishes through it (via the SDE Manager's
// NewClassServer), and the Interface Server reads from it (NewView).
//
// Every publish commits before it returns: the DL Publisher's stability
// timeout (Section 5.6) is the only thing that rations publication, so a
// basic definition is visible at once (Section 4) and a forced publication
// (Section 5.7) is committed when EnsureCurrent returns.
//
// Epochs: every commit batch advances the store epoch; each committed
// document records the epoch it was committed under, giving observers a
// store-wide happened-before order across paths.
//
// Journal: the last HistoryLen committed versions are retained, and
// ReplayEventsInto(path, afterEpoch, buf) returns the committed versions of
// a path a reconnecting watcher missed — the streaming watch transport's
// catch-up path, which turns a reconnect into a delta instead of a full
// fetch.
//
// One write path: every mutation — a publish, Remove, and the replication
// applies — takes the write locks in
// beginWrite, changes the in-memory state, and hands the resulting StoreOp
// to endWrite, which logs, journals, delivers, compacts and waits for
// durability in one fixed order (see endWrite).
//
// Persistence: a store opened with OpenStore over a data directory
// (StoreConfig.Dir) appends every commit batch and retirement to its
// write-ahead log before fan-out — one record per operation, in commit
// order — compacts the full state (documents, epoch counter, replay
// journal, restart generation) into a snapshot every SnapshotEvery
// records, and — under StoreConfig.Sync group or always — holds the
// publisher's ack until the record is fsynced. A reopened store resumes at
// an epoch strictly past its pre-restart epoch, so watchers reconnecting
// with their last epoch ride journal replay across the restart instead of
// forcing a snapshot stampede.
type Store struct {
	histLen int

	// generation identifies this store incarnation (never 0): a store
	// draws a random identity at creation, and a persistent store that
	// recovered one from its data directory takes the next value instead.
	// Served as the X-Store-Generation header so clients can tell "same
	// server, journal evicted" (snapshot event, same generation) from "new
	// server" (a generation change — with an epoch regression when the new
	// server lost the old state).
	generation uint64
	// recovered is the generation a persistent store loaded from its data
	// directory (0 if none): a follower resumes from its recovered epoch
	// only when this is its leader's (AdoptGeneration).
	recovered uint64

	// persist, when non-nil, is the store's log: every operation is
	// appended to its WAL (under mu, before fan-out), and once the log is
	// due it is compacted into a snapshot — off mu, under deliverMu, so
	// readers are not blocked by snapshot IO. The sync wait of a logged
	// operation (policy group/always) happens after BOTH locks release,
	// which is what lets concurrent committers amortize one fsync.
	persist *filePersistence

	mu         sync.Mutex
	docs       map[string]StoreEvent // each path's newest committed event
	retired    map[string]uint64     // removed paths → last committed version
	retiredAt  map[string]retireMark // when each floor was set (not persisted)
	retireSeq  uint64                // floors set so far
	epoch      uint64
	journal    []StoreEvent // commit-ordered ring, capacity histLen
	floorEpoch uint64       // journal covers epochs in (floorEpoch, epoch]
	stats      StoreStats
	readOnly   bool // replica: local publishes/removes are dropped
	replStats  func() *ReplicationStats
	closed     bool

	// watchers is the wake registry of held streams (see watchers.go):
	// each registers a capacity-1 wake channel under its path, all-paths
	// streams under AllPath, and a commit nudges only its batch's paths
	// and the all-paths streams. Registration and wakeup never hold mu.
	watchers wakeSet
	// fanout is the delivery plane's lock-free instrumentation; follow is
	// the all-paths streams' (the leader's ReplicationStats).
	fanout fanoutCounters
	follow followCounters

	// deliverMu serializes the writers, so operations are logged, woken
	// and delivered in commit order even when publishes race each other or
	// a replicated apply. It is always acquired before mu, and it guards
	// the taps, which run under it.
	deliverMu sync.Mutex
	taps      map[uint64]func(StoreOp)
	nextTap   uint64
}

// NewStore returns an in-memory store with the default journal capacity.
// Both arguments are ignored; they remain so existing NewStore(0, nil)
// callers keep compiling. For a store that survives process restarts, use
// OpenStore.
func NewStore(_ time.Duration, _ any) *Store {
	gen := rand.Uint64()
	for gen == 0 {
		gen = rand.Uint64()
	}
	return &Store{
		histLen:    DefaultHistoryLen,
		generation: gen,
		docs:       make(map[string]StoreEvent),
		retired:    make(map[string]uint64),
		retiredAt:  make(map[string]retireMark),
	}
}

// StoreConfig configures OpenStore. The zero value matches NewStore: an
// in-memory store with the default journal.
type StoreConfig struct {
	// HistoryLen bounds the replay journal (0 means DefaultHistoryLen,
	// negative disables it).
	HistoryLen int
	// Dir makes the store durable: snapshot.json and wal.log under this
	// directory (created if needed). Empty keeps the store in-memory.
	Dir string
	// SnapshotEvery is how many logged operations the log takes between
	// cadence snapshots (0 means DefaultSnapshotEvery).
	SnapshotEvery int
	// Sync selects what a committed publication's ack means for
	// durability: SyncNone (buffered write, the default) or
	// SyncGroupCommit (ack after an fsync, shared with concurrent
	// committers, that covers the record). A lone commit fsyncs at once.
	Sync SyncPolicy
}

// OpenStore opens a store, recovering documents, versions, the epoch
// counter, the bounded replay journal, and the restart generation from
// cfg.Dir (if set). The recovered generation is bumped — a directory with
// nothing to recover keeps NewStore's random one, so a store whose data was
// lost never reuses its old generation — and a fresh compacted snapshot is
// written immediately, so every open is durably distinguishable from the
// last. Without a directory it is NewStore with options.
func OpenStore(cfg StoreConfig) (*Store, error) {
	s := NewStore(0, nil)
	switch {
	case cfg.HistoryLen < 0:
		s.histLen = 0
	case cfg.HistoryLen > 0:
		s.histLen = cfg.HistoryLen
	}
	if cfg.Dir == "" {
		return s, nil
	}
	p, err := openFilePersistence(cfg)
	if err != nil {
		return nil, err
	}
	state, err := p.Load()
	if err != nil {
		_ = p.Close()
		return nil, err
	}
	s.docs, s.retired = state.Docs, state.Retired
	s.epoch = state.Epoch
	s.recovered = state.Generation
	if next := state.Generation + 1; next > 1 {
		s.generation = next // 0 (nothing recovered) and a wrap keep the random one
	}
	if s.histLen > 0 {
		for i := range state.Journal {
			state.Journal[i] = journalEntry(state.Journal[i])
		}
		s.journal = state.Journal
		s.floorEpoch = state.FloorEpoch
		s.trimJournalLocked()
	} else {
		s.floorEpoch = s.epoch
	}
	s.persist = p
	// Compact immediately: the fresh snapshot records the bumped
	// generation (so a crash before the first commit still counts as an
	// incarnation) and resets the WAL the recovery just replayed.
	if err := s.snapshotLocked(); err != nil {
		_ = p.Close()
		return nil, err
	}
	return s, nil
}

// Generation returns the store's incarnation identity (see the field doc).
func (s *Store) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.generation
}

// Epoch returns the current commit epoch.
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Stats returns a snapshot of the store counters, including the log's
// durability block for a persistent store.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	st := s.stats
	st.Epoch = s.epoch
	st.Generation = s.generation
	st.JournalDepth = len(s.journal)
	floor := s.floorEpoch
	p := s.persist
	rs := s.replStats
	s.mu.Unlock()
	if p != nil {
		ps := p.Stats()
		st.Durability = &ps
	}
	if rs != nil {
		st.Replication = rs()
	} else {
		st.Replication = s.leaderStats(st, floor)
	}
	st.Fanout = s.fanoutStats()
	return st
}

// Subscribe registers fn as a tap on every logged operation — each
// committed batch, its documents' text included, and each retirement — and
// returns a cancel function. fn runs on the committing goroutine, in commit
// order, after the operation is logged and journaled and its watchers are
// woken; it must not call back into the store's write paths, Subscribe, or
// a cancel function. Once cancel returns, fn is not called again.
func (s *Store) Subscribe(fn func(StoreOp)) (cancel func()) {
	s.deliverMu.Lock()
	if s.taps == nil {
		s.taps = make(map[uint64]func(StoreOp))
	}
	id := s.nextTap
	s.nextTap++
	s.taps[id] = fn
	s.deliverMu.Unlock()
	return func() {
		s.deliverMu.Lock()
		delete(s.taps, id)
		s.deliverMu.Unlock()
	}
}

// beginWrite takes the write locks, deliverMu then mu, for one mutation.
// It reports false, holding neither, when the store takes no write: it is
// closed, or it is a replica and the write is local (a publish or a
// remove), which belongs on the leader. On true the caller changes the
// in-memory state and ends with endWrite.
func (s *Store) beginWrite(local bool) bool {
	s.deliverMu.Lock()
	s.mu.Lock()
	if s.closed || local && s.readOnly {
		s.mu.Unlock()
		s.deliverMu.Unlock()
		return false
	}
	return true
}

// endWrite is the one write routine every mutation ends in. The caller
// holds both write locks (beginWrite) and has applied op to the documents,
// the retired floors and the epoch; endWrite does the rest, in this order:
//
//  1. append op to the WAL, under mu, before any watcher or tap sees it;
//  2. journal op's events and release mu, then, still under deliverMu,
//     wake the watchers of its paths and hand op to the taps, so both
//     observe operations in commit order;
//  3. run the cadence compaction under deliverMu but not mu, so readers
//     never wait on snapshot IO;
//  4. release deliverMu and only then wait for durability, so concurrent
//     committers share one group-commit fsync.
//
// An empty op (nothing new, nothing to retire) just releases the locks: no
// record, no delivery, no allocation.
func (s *Store) endWrite(op StoreOp) {
	if len(op.Events) == 0 && op.RemovePath == "" {
		s.mu.Unlock()
		s.deliverMu.Unlock()
		return
	}
	p := s.persist
	var lsn uint64
	if p != nil {
		var err error
		if op.RemovePath != "" {
			lsn, err = p.AppendRemove(op.RemovePath, op.RemoveVersion)
		} else {
			lsn, err = p.Append(op.Events)
		}
		if err != nil {
			s.stats.PersistErrors++
		} else {
			s.stats.WALAppends++
		}
	}
	if len(op.Events) > 0 {
		s.stats.Batches++
		s.stats.Commits += uint64(len(op.Events))
		s.journalLocked(op.Events)
	}
	s.mu.Unlock()
	// Waking a watcher is a non-blocking send — the socket writes happen
	// on each watcher's own delivery pump — so this costs O(watchers of the
	// batch's paths), not O(bytes).
	s.wakeWatchers(op.Events)
	for _, fn := range s.taps {
		fn(op)
	}
	s.maybeCompact()
	s.deliverMu.Unlock()
	s.awaitDurable(p, lsn)
}

// Publish is PublishVersioned without a descriptor version.
func (s *Store) Publish(path, contentType, content string) uint64 {
	return s.PublishVersioned(path, contentType, content, 0)
}

// PublishVersioned commits content under path as the path's next version,
// in its own epoch, and returns that version once the commit is logged,
// journaled and delivered (and, under a syncing policy, durable). A closed
// store or a replica takes no write and returns 0.
func (s *Store) PublishVersioned(path, contentType, content string, descriptorVersion uint64) uint64 {
	if !s.beginWrite(true) {
		return 0
	}
	s.stats.Publishes++
	s.epoch++
	d := s.docs[path].Doc
	if d.Version == 0 {
		// A republication of a retired path resumes its version
		// sequence so parked watchers still wake on it.
		d.Version = s.retired[path]
		s.unretireLocked(path)
	}
	d.Content = content
	d.ContentType = contentType
	d.DescriptorVersion = descriptorVersion
	d.Epoch = s.epoch
	d.Version++
	// One marshal per committed version: the same bytes back the WAL
	// record, every streaming watcher's "data:" line (a follower's
	// included) and the snapshot.
	ev := StoreEvent{Path: path, Doc: d, Payload: encodeEventPayload(path, d)}
	s.docs[path] = ev
	s.endWrite(StoreOp{Events: []StoreEvent{ev}})
	return d.Version
}

// awaitDurable blocks until the logged operation lsn is durable under the
// log's sync policy. Callers must have released deliverMu (and mu): the
// wait is where concurrent committers gather into one group-commit fsync,
// and holding the writer lock through it would serialize the groups back
// into per-commit fsyncs.
func (s *Store) awaitDurable(p *filePersistence, lsn uint64) {
	if p == nil || lsn == 0 {
		return
	}
	if err := p.Sync(lsn); err != nil {
		s.mu.Lock()
		s.stats.PersistErrors++
		s.mu.Unlock()
	}
}

// stateLocked assembles the persistent state. Caller holds s.mu; when the
// state will outlive the lock (maybeCompact), pass copied=true to clone
// the maps and journal so the compaction can marshal without the lock.
func (s *Store) stateLocked(copied bool) PersistentState {
	st := PersistentState{
		Generation: s.generation,
		Epoch:      s.epoch,
		FloorEpoch: s.floorEpoch,
		Docs:       s.docs,
		Retired:    s.retired,
		Journal:    s.journal,
	}
	if copied {
		st.Docs = maps.Clone(s.docs)
		st.Retired = maps.Clone(s.retired)
		st.Journal = slices.Clone(s.journal)
	}
	return st
}

// snapshotLocked compacts the full store state into the log. Caller holds
// s.mu (or, during OpenStore, has exclusive access) — only the open,
// close and reset paths pay snapshot IO under the lock; the steady-state
// cadence goes through maybeCompact instead.
func (s *Store) snapshotLocked() error {
	if s.persist == nil {
		return nil
	}
	err := s.persist.Snapshot(s.stateLocked(false))
	s.noteSnapshotLocked(err)
	return err
}

// noteSnapshotLocked counts one snapshot write by its outcome. Caller
// holds s.mu.
func (s *Store) noteSnapshotLocked(err error) {
	if err != nil {
		s.stats.PersistErrors++
	} else {
		s.stats.Snapshots++
	}
}

// maybeCompact writes the cadence snapshot when the log reports one due
// (it crossed its record budget); Close writes a closing store's last
// snapshot itself. Caller holds deliverMu but NOT mu: deliverMu
// serializes every WAL writer, so the log cannot grow under the
// compaction, while readers on mu — document GETs, journal replays for a
// thousand held streams — never wait on snapshot file IO.
func (s *Store) maybeCompact() {
	s.mu.Lock()
	p := s.persist
	if p == nil || s.closed || !p.CompactDue() {
		s.mu.Unlock()
		return
	}
	state := s.stateLocked(true)
	s.mu.Unlock()
	err := p.Snapshot(state)
	s.mu.Lock()
	s.noteSnapshotLocked(err)
	s.mu.Unlock()
}

// journalLocked appends the batch's events to the replay journal, evicting
// the oldest entries past the capacity. Caller holds s.mu.
func (s *Store) journalLocked(evs []StoreEvent) {
	if s.histLen <= 0 {
		s.floorEpoch = s.epoch
		return
	}
	for _, ev := range evs {
		s.journal = append(s.journal, journalEntry(ev))
	}
	s.trimJournalLocked()
}

// journalEntry is ev as the journal keeps it: its readers need only the
// wire bytes, and each path's newest text is already in the docs map.
func journalEntry(ev StoreEvent) StoreEvent {
	ev.Doc.Content = ""
	return ev
}

// trimJournalLocked evicts journal entries past the capacity, advancing the
// replay floor to the newest evicted epoch. Caller holds s.mu.
func (s *Store) trimJournalLocked() {
	over := len(s.journal) - s.histLen
	if over <= 0 {
		return
	}
	s.floorEpoch = s.journal[over-1].Doc.Epoch
	copy(s.journal, s.journal[over:])
	s.journal = s.journal[:s.histLen]
}

// journalAfterLocked appends to buf the journal entries of path with an
// epoch greater than afterEpoch, oldest first. The (epoch-ordered) journal
// is binary-searched for the first entry past afterEpoch, so a read for a
// nearly-current watcher — the per-commit wake of every held stream —
// scans only the tail, not the whole ring. Caller holds s.mu.
func (s *Store) journalAfterLocked(path string, afterEpoch uint64, buf []StoreEvent) []StoreEvent {
	for _, ev := range s.journalFromLocked(afterEpoch) {
		if ev.Path == path {
			buf = append(buf, ev)
		}
	}
	return buf
}

// journalFromLocked is the journal past afterEpoch, every path. Caller
// holds s.mu.
func (s *Store) journalFromLocked(afterEpoch uint64) []StoreEvent {
	from := sort.Search(len(s.journal), func(i int) bool {
		return s.journal[i].Doc.Epoch > afterEpoch
	})
	return s.journal[from:]
}

// noteReplayLocked counts one journal read by its outcome. Caller holds
// s.mu.
func (s *Store) noteReplayLocked(covered bool) {
	if covered {
		s.stats.Replays++
	} else {
		s.stats.ReplayMisses++
	}
}

// ReplayEventsInto returns the committed versions of path with an epoch
// greater than afterEpoch, oldest first — the delta a watcher that last
// saw afterEpoch missed — as the journal entries themselves, whose Payload
// fields carry the commit-time shared wire encoding. Their Doc.Content is
// empty: the text is in Payload, and Get has the current version's. It
// reports false when the journal no longer covers that range (the entries
// were evicted, or the journal is disabled); the caller must fall back to
// a full snapshot of the current document. Entries are appended into
// buf[:0] so a looping caller reuses one buffer; on a miss it returns
// buf[:0] (not nil), preserving the buffer's capacity.
func (s *Store) ReplayEventsInto(path string, afterEpoch uint64, buf []StoreEvent) ([]StoreEvent, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	covered := afterEpoch >= s.floorEpoch
	s.noteReplayLocked(covered)
	if !covered {
		return buf[:0], false
	}
	return s.journalAfterLocked(path, afterEpoch, buf[:0]), true
}

// pumpView is one stream pump's per-wake read of the store: the path's
// newest committed event, the journal entries pending past the pump's cursor
// (complete reports whether they are every version up to that document),
// and the store-wide state the pump must react to.
type pumpView struct {
	cur      StoreEvent // zero while the path is unpublished
	events   []StoreEvent
	complete bool
	closed   bool
	gen      uint64
	epoch    uint64
}

// pumpCollect gathers everything a waking stream pump needs under one mu
// acquisition. The cursor is the last delivered document of path, as its
// (epoch, version); a connecting stream knows only the epoch (afterVer 0).
// With nothing committed past afterVer — every heartbeat tick's wake — it
// returns without touching the journal. Otherwise events are the journal
// entries past afterEpoch, appended into buf[:0], and complete reports
// whether they are the whole history up to cur: by version count for a
// live cursor (per-path versions are contiguous, so afterVer+len(events)
// must reach cur.Version — a replicated epoch that arrived at or below
// the journal floor was never journaled, and fails this), by the journal
// floor for a connecting one. A live cursor one version behind is
// complete whatever the journal holds: cur, whose Payload the docs map
// keeps, is its one event, so a store without a journal streams live
// commits as versions too. On complete=false the pump snapshot-resets.
func (s *Store) pumpCollect(path string, afterEpoch, afterVer uint64, buf []StoreEvent) pumpView {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := pumpView{cur: s.docs[path], events: buf[:0], complete: true, closed: s.closed, gen: s.generation, epoch: s.epoch}
	if v.cur.Doc.Version <= afterVer {
		return v
	}
	v.events = s.journalAfterLocked(path, afterEpoch, v.events)
	if afterVer > 0 && afterVer+1 == v.cur.Doc.Version && len(v.events) == 0 {
		v.events = append(v.events, v.cur)
	}
	if afterVer > 0 {
		v.complete = afterVer+uint64(len(v.events)) == v.cur.Doc.Version
	} else {
		v.complete = afterEpoch >= s.floorEpoch
	}
	s.noteReplayLocked(v.complete)
	return v
}

// Remove retires a path when its server closes. The committed document
// disappears (Get reports it unpublished), and the retired version floor
// is kept so republication continues the sequence.
func (s *Store) Remove(path string) {
	if !s.beginWrite(true) {
		return
	}
	var op StoreOp
	if ev, ok := s.docs[path]; ok {
		s.retireLocked(path, ev.Doc.Version)
		delete(s.docs, path)
		op = StoreOp{RemovePath: path, RemoveVersion: ev.Doc.Version}
	}
	s.endWrite(op)
}

// Get returns the committed document at path.
func (s *Store) Get(path string) (Document, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ev, ok := s.docs[path]
	if !ok {
		return Document{}, ErrNotFound
	}
	return ev.Doc, nil
}

// Version returns the committed version of path (0 if unpublished).
func (s *Store) Version(path string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.docs[path].Doc.Version
}

// Paths returns all published paths (unordered).
func (s *Store) Paths() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ps := make([]string, 0, len(s.docs))
	for p := range s.docs {
		ps = append(ps, p)
	}
	return ps
}

// Close marks the store closed, so every later write is dropped, then
// writes a final compacted snapshot, releases the log, and wakes every held
// stream.
func (s *Store) Close() {
	if !s.beginWrite(false) {
		return
	}
	s.closed = true
	if p := s.persist; p != nil {
		_ = s.snapshotLocked() // a failure is counted in PersistErrors
		if err := p.Close(); err != nil {
			s.stats.PersistErrors++
		}
		s.persist = nil
	}
	s.mu.Unlock()
	s.deliverMu.Unlock()
	// Every held watcher must notice the close and unwind.
	s.wakeAllWatchers()
}

// Crash closes the store the hard way: no parting snapshot — the data
// directory is left exactly as the crash-consistency machinery (WAL
// framing, lsn watermarks, torn-tail truncation) would find it after a
// process kill. It exists for crash-recovery tests and
// the recovery benchmark; production shutdown is Close.
func (s *Store) Crash() error {
	if !s.beginWrite(false) {
		return nil
	}
	s.closed = true
	p := s.persist
	s.persist = nil
	s.mu.Unlock()
	s.deliverMu.Unlock()
	s.wakeAllWatchers()
	if p == nil {
		return nil
	}
	return p.Close()
}
