package ifsvr

import (
	"errors"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"livedev/internal/clock"
)

// ErrStoreClosed reports an operation on a closed publication store.
var ErrStoreClosed = errors.New("ifsvr: publication store closed")

// DefaultHistoryLen is the journal capacity a store is created with: how
// many committed versions (across all paths) are retained for watcher
// catch-up.
const DefaultHistoryLen = 256

// StoreEvent is one committed publication fanned out to subscribers.
//
// Subscribers and StoreOp receivers get the commit-time event, Content
// included. A journal entry (ReplayEventsInto, PersistentState.Journal)
// carries Payload and the metadata but no Doc.Content: read the text from
// Payload, or use Get for the current version.
type StoreEvent struct {
	// Path is the document path that committed.
	Path string
	// Doc is the committed document (its Version and Epoch are final).
	Doc Document
	// Payload is the event's shared wire encoding: the JSON object that is
	// both the SSE "data:" line every streaming watcher receives and the
	// element of the WAL commit record. It is marshaled exactly once, at
	// commit time, and fanned out by reference — receivers must treat it
	// as immutable.
	Payload []byte
}

// StoreStats counts store activity; all fields are cumulative.
type StoreStats struct {
	// Publishes counts PublishVersioned calls.
	Publishes uint64
	// Commits counts committed document versions (one per fan-out event).
	Commits uint64
	// Coalesced counts publishes absorbed into an already-pending slot —
	// edit-storm publications that never became a distinct version.
	Coalesced uint64
	// Batches counts flush batches that committed at least one document.
	Batches uint64
	// Flushes counts explicit Flush calls (the forced-publication path).
	Flushes uint64
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
	// Durability is the persistence backend's own counter block (lsns,
	// fsyncs, group-commit batch sizes, fsync lag); nil for an in-memory
	// store.
	Durability *PersistStats
	// Replication is the replication subsystem's counter block (role,
	// lsns, lag, reconnects); nil for an unreplicated store.
	Replication *ReplicationStats
	// Fanout is the delivery plane's counter block: registered watchers,
	// commit-time wakeups, flush batch sizes, and the backpressure valves
	// (evictions, snapshot resets).
	Fanout FanoutStats
}

// Store is the event-driven publication core: a versioned interface-document
// store with epoch-numbered snapshots, subscriber fan-out, edit-storm
// coalescing, and an epoch-indexed journal for watcher catch-up. It is the
// one document store: every binding publishes through it (via the SDE
// Manager's NewClassServer), the Interface Server reads from it
// (NewView), and a standalone Server (New or the zero value) owns one with
// coalescing disabled.
//
// Coalescing: with a non-zero flush window, rapid PublishVersioned calls to
// an already-published path are staged, and the window's flush commits each
// path once with the last-written content — a storm of N publications
// becomes one committed version per window. Each path can carry its own
// window (SetPathWindow) so hot classes coalesce harder than cold ones. The
// first publication of a path always commits immediately (the paper's
// "immediately publishes a basic definition", Section 4), and Flush commits
// the staged set synchronously, which is how the forced-publication
// protocol (Section 5.7) keeps its recency guarantee: DLPublisher
// .EnsureCurrent flushes before the "Non Existent Method" reply goes out.
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
// Persistence: a store opened with OpenStore over a Persistence backend
// (StoreConfig.Dir for the file implementation) appends every commit
// batch to its write-ahead log before fan-out — one record per batch, in
// commit order — compacts the full state (documents, epoch counter,
// replay journal, restart generation) into a snapshot every SnapshotEvery
// batches, and — under StoreConfig.Sync group or always — holds the
// publisher's ack until the batch is fsynced. A reopened store resumes at an
// epoch strictly past its pre-restart epoch, so watchers reconnecting
// with their last epoch ride journal replay across the restart instead
// of forcing a snapshot stampede.
type Store struct {
	window  time.Duration
	clk     clock.Clock
	histLen int

	// generation identifies this store incarnation (never 0): a store
	// draws a random identity at creation, and a persistent store that
	// recovered one from its data directory takes the next value instead.
	// Served as the X-Store-Generation header so clients can tell "same
	// server, journal evicted" (snapshot event, same generation) from "new
	// server" (a generation change — with an epoch regression when the new
	// server lost the old state).
	generation uint64

	// persist, when non-nil, is the durability backend: every commit batch
	// is appended to its WAL (under mu, before fan-out), and once the log
	// is due it is compacted into a snapshot — off mu, under deliverMu, so
	// readers are not blocked by snapshot IO. The sync wait of a committed
	// batch (policy group/always) happens after BOTH locks release, which
	// is what lets concurrent committers amortize one fsync.
	persist Persistence

	mu           sync.Mutex
	docs         map[string]Document
	retired      map[string]uint64   // removed paths → last committed version
	pending      map[string]Document // staged content awaiting a flush
	pendingOrder []string
	deadlines    map[string]time.Time // per-path commit deadline of staged content
	pathWindows  map[string]time.Duration
	timer        clock.Timer
	timerOn      bool
	timerAt      time.Time
	epoch        uint64
	journal      []StoreEvent // commit-ordered ring, capacity histLen
	floorEpoch   uint64       // journal covers epochs in (floorEpoch, epoch]
	stats        StoreStats
	subs         map[uint64]func(StoreEvent)
	nextSub      uint64
	opsSubs      map[uint64]func(StoreOp) // replication taps (SubscribeOps)
	nextOpsSub   uint64
	readOnly     bool // replica: local publishes/removes are dropped
	replStats    func() *ReplicationStats
	closed       bool

	// watchers is the path-hash-sharded wake registry (see watchers.go):
	// held streams register a capacity-1 wake channel per path, and a
	// commit nudges only the shards its batch dirtied. Shard locks nest strictly inside mu (registration and
	// wakeup never hold mu) and are never held across a callback.
	watchers [watchShardCount]watchShard
	// fanout is the delivery plane's lock-free instrumentation.
	fanout fanoutCounters

	// deliverMu serializes commit+fan-out so events arrive in commit order
	// even when a timer flush races an explicit Flush or an immediate
	// publish. It is always acquired before mu.
	deliverMu sync.Mutex
}

// NewStore returns an in-memory store with the given flush window (0
// disables coalescing: every publish commits immediately) and the default
// journal capacity. clk drives the flush timer; nil means the real clock.
// For a store that survives process restarts, use OpenStore.
func NewStore(window time.Duration, clk clock.Clock) *Store {
	if clk == nil {
		clk = clock.Real{}
	}
	gen := rand.Uint64()
	for gen == 0 {
		gen = rand.Uint64()
	}
	return &Store{
		window:     window,
		clk:        clk,
		histLen:    DefaultHistoryLen,
		generation: gen,
		docs:       make(map[string]Document),
		retired:    make(map[string]uint64),
		pending:    make(map[string]Document),
		deadlines:  make(map[string]time.Time),
		subs:       make(map[uint64]func(StoreEvent)),
	}
}

// StoreConfig configures OpenStore. The zero value matches
// NewStore(0, nil): in-memory, coalescing disabled, default journal.
type StoreConfig struct {
	// Window is the store-wide edit-storm coalescing window (0 commits
	// every publish immediately).
	Window time.Duration
	// Clock drives the flush timer; nil means the real clock.
	Clock clock.Clock
	// HistoryLen bounds the replay journal (0 means DefaultHistoryLen,
	// negative disables it).
	HistoryLen int
	// Dir enables the file persistence backend (snapshot.json + wal.log
	// under this directory) when Persistence is nil. Empty keeps the store
	// in-memory.
	Dir string
	// Persistence is an explicit durability backend; it overrides Dir
	// (and Sync/GroupWindow/SnapshotEvery, which configure the file
	// backend Dir resolves to).
	Persistence Persistence
	// SnapshotEvery is how many commit batches the log takes between
	// cadence snapshots (0 means DefaultSnapshotEvery).
	SnapshotEvery int
	// Sync selects what a committed publication's ack means for
	// durability: SyncNone (buffered write, the default), SyncGroupCommit
	// (ack after an fsync shared with concurrent committers), or
	// SyncAlways (ack after a per-batch fsync).
	Sync SyncPolicy
	// GroupWindow bounds the extra time a lone commit may wait for
	// company under SyncGroupCommit (0 means DefaultGroupWindow).
	GroupWindow time.Duration
}

// OpenStore opens a store, recovering documents, versions, the epoch
// counter, the bounded replay journal, and the restart generation from the
// configured persistence backend (if any). The recovered generation is
// bumped — a directory with nothing to recover keeps NewStore's random
// one, so a store whose data was lost never reuses its old generation —
// and a fresh compacted snapshot is written immediately, so every open is
// durably distinguishable from the last. With no persistence configured
// it is NewStore with options.
func OpenStore(cfg StoreConfig) (*Store, error) {
	s := NewStore(cfg.Window, cfg.Clock)
	switch {
	case cfg.HistoryLen < 0:
		s.histLen = 0
	case cfg.HistoryLen > 0:
		s.histLen = cfg.HistoryLen
	}
	p := cfg.Persistence
	if p == nil && cfg.Dir != "" {
		fp, err := OpenFilePersistence(FileConfig{
			Dir:           cfg.Dir,
			Sync:          cfg.Sync,
			GroupWindow:   cfg.GroupWindow,
			SnapshotEvery: cfg.SnapshotEvery,
		})
		if err != nil {
			return nil, err
		}
		p = fp
	}
	if p == nil {
		return s, nil
	}
	state, err := p.Load()
	if err != nil {
		_ = p.Close()
		return nil, err
	}
	for path, d := range state.Docs {
		s.docs[path] = d
	}
	for path, v := range state.Retired {
		s.retired[path] = v
	}
	s.epoch = state.Epoch
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

// FlushWindow returns the configured store-wide coalescing window.
func (s *Store) FlushWindow() time.Duration { return s.window }

// SetHistoryLen resizes the replay journal to retain the last n committed
// versions (n < 0 disables the journal entirely; 0 restores the default).
// Shrinking evicts the oldest entries, moving the replay floor forward.
func (s *Store) SetHistoryLen(n int) {
	if n == 0 {
		n = DefaultHistoryLen
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 0 {
		s.histLen = 0
		s.journal = nil
		s.floorEpoch = s.epoch
		return
	}
	s.histLen = n
	s.trimJournalLocked()
}

// HistoryLen returns the journal capacity (0 when disabled).
func (s *Store) HistoryLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.histLen
}

// SetPathWindow overrides the coalescing window for one path — hot paths
// can coalesce harder (longer window) than the store-wide setting, cold
// paths softer (shorter, or 0 for immediate commits). A zero-or-negative
// override commits that path's publications immediately. The override
// applies to publications staged after the call and is cleared by Remove.
func (s *Store) SetPathWindow(path string, window time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pathWindows == nil {
		s.pathWindows = make(map[string]time.Duration)
	}
	s.pathWindows[path] = window
}

// windowFor resolves the effective coalescing window of path. Caller holds
// s.mu.
func (s *Store) windowFor(path string) time.Duration {
	if w, ok := s.pathWindows[path]; ok {
		return w
	}
	return s.window
}

// Epoch returns the current commit epoch.
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Stats returns a snapshot of the store counters, including the
// persistence backend's durability block for a persistent store.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	st := s.stats
	st.Epoch = s.epoch
	st.Generation = s.generation
	st.JournalDepth = len(s.journal)
	p := s.persist
	rs := s.replStats
	s.mu.Unlock()
	if p != nil {
		ps := p.Stats()
		st.Durability = &ps
	}
	if rs != nil {
		st.Replication = rs()
	}
	st.Fanout = s.fanoutStats()
	return st
}

// Publish is PublishVersioned without a descriptor version.
func (s *Store) Publish(path, contentType, content string) uint64 {
	return s.PublishVersioned(path, contentType, content, 0)
}

// PublishVersioned stores content under path. With
// coalescing enabled and the path already published, the write is staged
// until the path's flush window elapses (or Flush runs), and the returned
// version is the version the path will carry after that flush. Staged
// writes to the same path coalesce — only the last content commits — so an
// earlier caller in the same window receives the version its superseded
// content never actually had; treat the return as "the path's next
// committed version", not a receipt for this exact content.
func (s *Store) PublishVersioned(path, contentType, content string, descriptorVersion uint64) uint64 {
	staged := Document{
		Content:           content,
		ContentType:       contentType,
		DescriptorVersion: descriptorVersion,
	}
	// The durability wait runs after BOTH locks release (deferred calls
	// run last-in-first-out): concurrent publishers park in Sync together
	// and share the backend's next fsync, instead of serializing fsyncs
	// behind deliverMu.
	var p Persistence
	var tok SyncToken
	defer func() { s.awaitDurable(p, tok) }()
	s.deliverMu.Lock()
	defer s.deliverMu.Unlock()
	s.mu.Lock()
	s.stats.Publishes++
	if s.closed || s.readOnly {
		s.mu.Unlock()
		return 0
	}
	_, published := s.docs[path]
	window := s.windowFor(path)
	if window <= 0 || !published {
		var evs []StoreEvent
		evs, tok = s.commitLocked([]string{path}, map[string]Document{path: staged})
		ver := s.docs[path].Version
		fns := s.subscribersLocked()
		ops := s.opsSubsLocked()
		p = s.persist
		s.mu.Unlock()
		s.fanOut(evs, fns)
		deliverOps(ops, StoreOp{Events: evs})
		s.maybeCompact()
		return ver
	}
	if _, dup := s.pending[path]; dup {
		s.stats.Coalesced++
	} else {
		s.pendingOrder = append(s.pendingOrder, path)
		s.deadlines[path] = s.clk.Now().Add(window)
		s.rearmLocked()
	}
	s.pending[path] = staged
	ver := s.docs[path].Version + 1
	s.mu.Unlock()
	return ver
}

// commitLocked commits the given paths (drawing content from contents),
// bumping the epoch once for the batch and journaling each committed
// version. Caller holds s.mu, must fan the returned events out after
// unlocking, and must pass the returned token to awaitDurable after
// releasing deliverMu — the ack of a synced store is only honest once
// that wait returns.
func (s *Store) commitLocked(order []string, contents map[string]Document) ([]StoreEvent, SyncToken) {
	if len(order) == 0 {
		return nil, 0
	}
	s.epoch++
	s.stats.Batches++
	evs := make([]StoreEvent, 0, len(order))
	for _, path := range order {
		staged := contents[path]
		d := s.docs[path]
		if d.Version == 0 {
			// A republication of a retired path resumes its version
			// sequence so parked watchers still wake on it.
			d.Version = s.retired[path]
			delete(s.retired, path)
		}
		d.Content = staged.Content
		d.ContentType = staged.ContentType
		d.DescriptorVersion = staged.DescriptorVersion
		d.Epoch = s.epoch
		d.Version++
		s.docs[path] = d
		s.stats.Commits++
		// One marshal per committed version: the same bytes back the WAL
		// record and every streaming watcher's "data:" line.
		evs = append(evs, StoreEvent{Path: path, Doc: d, Payload: encodeEventPayload(path, d)})
	}
	s.journalLocked(evs)
	var tok SyncToken
	if s.persist != nil {
		t, err := s.persist.Append(evs)
		if err != nil {
			s.stats.PersistErrors++
		} else {
			s.stats.WALAppends++
			tok = t
		}
	}
	return evs, tok
}

// awaitDurable blocks until the logged operation behind tok is durable
// under the backend's sync policy. Callers must have released deliverMu
// (and mu): the wait is where concurrent committers gather into one
// group-commit fsync, and holding the writer lock through it would
// serialize the groups back into per-commit fsyncs.
func (s *Store) awaitDurable(p Persistence, tok SyncToken) {
	if p == nil || tok == 0 {
		return
	}
	if err := p.Sync(tok); err != nil {
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
		st.Docs = make(map[string]Document, len(s.docs))
		for k, v := range s.docs {
			st.Docs[k] = v
		}
		st.Retired = make(map[string]uint64, len(s.retired))
		for k, v := range s.retired {
			st.Retired[k] = v
		}
		st.Journal = append([]StoreEvent(nil), s.journal...)
	}
	return st
}

// snapshotLocked compacts the full store state into the persistence
// backend. Caller holds s.mu (or, during OpenStore/Close, has
// exclusive access) — only the open/close paths pay snapshot IO under the
// lock; the steady-state cadence goes through maybeCompact instead.
func (s *Store) snapshotLocked() error {
	if s.persist == nil {
		return nil
	}
	if err := s.persist.Snapshot(s.stateLocked(false)); err != nil {
		return err
	}
	s.stats.Snapshots++
	return nil
}

// maybeCompact writes the cadence snapshot when the backend reports one
// due (the log crossed its batch budget). Caller holds deliverMu but NOT
// mu: deliverMu serializes every WAL writer (publish, flush, remove,
// close), so the logs cannot grow under the compaction, while readers on
// mu — document GETs, parked Waits, journal replays for a thousand held
// streams — never wait on snapshot file IO.
func (s *Store) maybeCompact() {
	s.mu.Lock()
	due := s.persist != nil && !s.closed && s.persist.CompactDue()
	var state PersistentState
	var p Persistence
	if due {
		state = s.stateLocked(true)
		p = s.persist
	}
	s.mu.Unlock()
	if !due {
		return
	}
	err := p.Snapshot(state)
	s.mu.Lock()
	if err != nil {
		s.stats.PersistErrors++
	} else {
		s.stats.Snapshots++
	}
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
	if ev.Payload == nil {
		ev.Payload = encodeEventPayload(ev.Path, ev.Doc)
	}
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
	from := sort.Search(len(s.journal), func(i int) bool {
		return s.journal[i].Doc.Epoch > afterEpoch
	})
	for _, ev := range s.journal[from:] {
		if ev.Path == path {
			buf = append(buf, ev)
		}
	}
	return buf
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
// committed document, the journal entries pending past the pump's cursor
// (complete reports whether they are every version up to that document),
// and the store-wide state the pump must react to.
type pumpView struct {
	cur      Document // zero while the path is unpublished
	events   []StoreEvent
	complete bool
	closed   bool
	gen      uint64
	epoch    uint64
}

// pumpCollect gathers everything a waking stream pump needs under one mu
// acquisition. The cursor is the last delivered document of path, as its
// (epoch, version); a connecting stream knows only the epoch (afterVer 0).
// With nothing committed past afterVer — every idle sweep wake — it
// returns without touching the journal. Otherwise events are the journal
// entries past afterEpoch, appended into buf[:0], and complete reports
// whether they are the whole history up to cur: by version count for a
// live cursor (per-path versions are contiguous, so afterVer+len(events)
// must reach cur.Version — a replicated epoch that arrived at or below
// the journal floor was never journaled, and fails this), by the journal
// floor for a connecting one. On complete=false the pump snapshot-resets.
func (s *Store) pumpCollect(path string, afterEpoch, afterVer uint64, buf []StoreEvent) pumpView {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := pumpView{cur: s.docs[path], events: buf[:0], complete: true, closed: s.closed, gen: s.generation, epoch: s.epoch}
	if v.cur.Version <= afterVer {
		return v
	}
	v.events = s.journalAfterLocked(path, afterEpoch, v.events)
	if afterVer > 0 {
		v.complete = afterVer+uint64(len(v.events)) == v.cur.Version
	} else {
		v.complete = afterEpoch >= s.floorEpoch
	}
	s.noteReplayLocked(v.complete)
	return v
}

// rearmLocked (re)schedules the flush timer for the earliest pending
// deadline. Caller holds s.mu.
func (s *Store) rearmLocked() {
	var next time.Time
	for _, p := range s.pendingOrder {
		if dl := s.deadlines[p]; next.IsZero() || dl.Before(next) {
			next = dl
		}
	}
	if next.IsZero() {
		if s.timer != nil {
			s.timer.Stop()
			s.timer = nil
		}
		s.timerOn = false
		return
	}
	if s.timerOn && !s.timerAt.After(next) {
		return // the armed timer fires early enough
	}
	if s.timer != nil {
		s.timer.Stop()
	}
	d := next.Sub(s.clk.Now())
	if d < 0 {
		d = 0
	}
	s.timerAt = next
	s.timerOn = true
	s.timer = s.clk.AfterFunc(d, s.onFlushTimer)
}

// dueLocked stages-out everything whose deadline has passed. Caller holds
// s.mu.
func (s *Store) dueLocked(now time.Time) (order []string, contents map[string]Document) {
	contents = make(map[string]Document)
	keep := s.pendingOrder[:0]
	for _, p := range s.pendingOrder {
		if s.deadlines[p].After(now) {
			keep = append(keep, p)
			continue
		}
		order = append(order, p)
		contents[p] = s.pending[p]
		delete(s.pending, p)
		delete(s.deadlines, p)
	}
	s.pendingOrder = keep
	return order, contents
}

// flushLocked stages-out and commits everything pending. Caller holds s.mu.
func (s *Store) flushLocked() ([]StoreEvent, SyncToken) {
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	s.timerOn = false
	if len(s.pendingOrder) == 0 {
		return nil, 0
	}
	order, contents := s.pendingOrder, s.pending
	s.pendingOrder = nil
	s.pending = make(map[string]Document)
	s.deadlines = make(map[string]time.Time)
	return s.commitLocked(order, contents)
}

func (s *Store) onFlushTimer() {
	var p Persistence
	var tok SyncToken
	defer func() { s.awaitDurable(p, tok) }()
	s.deliverMu.Lock()
	defer s.deliverMu.Unlock()
	s.mu.Lock()
	s.timerOn = false
	s.timer = nil
	var evs []StoreEvent
	if !s.closed {
		order, contents := s.dueLocked(s.clk.Now())
		evs, tok = s.commitLocked(order, contents)
		p = s.persist
		s.rearmLocked() // paths with longer windows stay staged
	}
	fns := s.subscribersLocked()
	ops := s.opsSubsLocked()
	s.mu.Unlock()
	s.fanOut(evs, fns)
	deliverOps(ops, StoreOp{Events: evs})
	s.maybeCompact()
}

// Flush synchronously commits every staged publication — the forced-
// publication path: after Flush returns, Get observes everything published
// before the call (and, under a syncing policy, the batch is durable).
func (s *Store) Flush() {
	var p Persistence
	var tok SyncToken
	defer func() { s.awaitDurable(p, tok) }()
	s.deliverMu.Lock()
	defer s.deliverMu.Unlock()
	s.mu.Lock()
	s.stats.Flushes++
	var evs []StoreEvent
	if !s.closed {
		evs, tok = s.flushLocked()
		p = s.persist
	}
	fns := s.subscribersLocked()
	ops := s.opsSubsLocked()
	s.mu.Unlock()
	s.fanOut(evs, fns)
	deliverOps(ops, StoreOp{Events: evs})
	s.maybeCompact()
}

// subscribersLocked snapshots the subscriber list. Caller holds s.mu.
func (s *Store) subscribersLocked() []func(StoreEvent) {
	if len(s.subs) == 0 {
		return nil
	}
	fns := make([]func(StoreEvent), 0, len(s.subs))
	for _, fn := range s.subs {
		fns = append(fns, fn)
	}
	return fns
}

// fanOut wakes the watchers of the batch's paths, then delivers the
// events to the snapshotted subscribers. Callers hold deliverMu (acquired
// before the commit), which is what keeps delivery in commit order across
// concurrent committers. Waking a watcher is a non-blocking send — the
// actual socket writes happen on each watcher's own delivery pump, so the
// committing goroutine's cost here is O(watchers of the dirty paths), not
// O(bytes). Subscriber callbacks run on the committing goroutine and must
// not call back into the store's publish/flush paths.
func (s *Store) fanOut(evs []StoreEvent, fns []func(StoreEvent)) {
	if len(evs) > 0 {
		s.wakeWatchers(evs)
	}
	for _, ev := range evs {
		for _, fn := range fns {
			fn(ev)
		}
	}
}

// Subscribe registers fn for every committed publication and returns a
// cancel function. An event already being delivered when cancel returns may
// still invoke fn once.
func (s *Store) Subscribe(fn func(StoreEvent)) (cancel func()) {
	s.mu.Lock()
	id := s.nextSub
	s.nextSub++
	s.subs[id] = fn
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		delete(s.subs, id)
		s.mu.Unlock()
	}
}

// Remove retires a path when its server closes. The
// committed document disappears (Get reports it unpublished), staged writes
// and any per-path window override for it are dropped, and — because the
// "first publication commits immediately" rule keys on committed presence —
// a re-registered server's fresh documents commit synchronously instead of
// sitting out a flush window behind the dead server's entries. The retired
// version floor is kept so republication continues the sequence.
func (s *Store) Remove(path string) {
	var p Persistence
	var tok SyncToken
	defer func() { s.awaitDurable(p, tok) }()
	s.deliverMu.Lock()
	defer s.deliverMu.Unlock()
	s.mu.Lock()
	if s.readOnly {
		s.mu.Unlock()
		return
	}
	var removed uint64
	if d, ok := s.docs[path]; ok {
		removed = d.Version
		s.retired[path] = d.Version
		delete(s.docs, path)
		if s.persist != nil && !s.closed {
			t, err := s.persist.AppendRemove(path, d.Version)
			if err != nil {
				s.stats.PersistErrors++
			} else {
				s.stats.WALAppends++
				tok = t
				p = s.persist
			}
		}
	}
	delete(s.pathWindows, path)
	if _, staged := s.pending[path]; staged {
		delete(s.pending, path)
		delete(s.deadlines, path)
		order := s.pendingOrder[:0]
		for _, p := range s.pendingOrder {
			if p != path {
				order = append(order, p)
			}
		}
		s.pendingOrder = order
	}
	ops := s.opsSubsLocked()
	s.mu.Unlock()
	if removed != 0 {
		deliverOps(ops, StoreOp{RemovePath: path, RemoveVersion: removed})
	}
}

// Get returns the committed document at path. Staged (not yet
// flushed) content is not visible.
func (s *Store) Get(path string) (Document, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.docs[path]
	if !ok {
		return Document{}, ErrNotFound
	}
	return d, nil
}

// Version returns the committed version of path (0 if unpublished).
func (s *Store) Version(path string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.docs[path].Version
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

// Close flushes staged publications, wakes held streams, and stops the
// flush timer; a persistent store writes a final compacted snapshot and
// releases its backend. Subsequent publishes are dropped.
func (s *Store) Close() {
	s.deliverMu.Lock()
	defer s.deliverMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	// The final flush's batch needs no sync wait: the full snapshot below
	// durably captures it (and resets the logs) before the backend closes.
	evs, _ := s.flushLocked()
	s.closed = true
	if s.persist != nil {
		if err := s.snapshotLocked(); err != nil {
			s.stats.PersistErrors++
		}
		if err := s.persist.Close(); err != nil {
			s.stats.PersistErrors++
		}
		s.persist = nil
	}
	fns := s.subscribersLocked()
	ops := s.opsSubsLocked()
	s.mu.Unlock()
	s.fanOut(evs, fns)
	deliverOps(ops, StoreOp{Events: evs})
	// Every held watcher — not just those on the final batch's paths —
	// must notice the close and unwind.
	s.wakeAllWatchers()
}

// Crash closes the store the hard way: no final flush, no parting
// snapshot — the data directory is left exactly as the crash-consistency
// machinery (WAL framing, lsn watermarks, torn-tail truncation) would
// find it after a process kill. It exists for crash-recovery tests and
// the recovery benchmark; production shutdown is Close.
func (s *Store) Crash() error {
	s.deliverMu.Lock()
	defer s.deliverMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	p := s.persist
	s.persist = nil
	s.mu.Unlock()
	s.wakeAllWatchers()
	if p == nil {
		return nil
	}
	return p.Close()
}
