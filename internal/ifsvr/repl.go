package ifsvr

import (
	"cmp"
	"io"
	"slices"
	"strconv"
	"sync/atomic"

	"livedev/internal/jsonstr"
)

// The replication seam: the leader's all-paths watch stream, and what the
// internal/repl follower needs from the publication store without reaching
// into its internals.
//
// A replication LEADER is any Interface Server: a follower is one more
// watcher, of AllPath, whose stream carries every path's commits in epoch
// order and the retired floors. A replication FOLLOWER feeds each event
// back in through ApplyReplicated / ApplyReplicatedRemove, which take the
// store's one write path (journal, fan-out, optional persistence) but
// install the leader's versions, epochs and "data:" bytes verbatim instead
// of assigning new ones — so a watcher on a follower sees byte-identical
// events, at identical epochs, under the leader's restart generation
// (AdoptGeneration), and fail-over between replicas looks like an ordinary
// reconnect rather than a state-loss restart.

// AllPath is the reserved path of the all-paths watch stream: a GET with
// "?watch=stream&after=E" holds one stream of every commit on every path
// past store epoch E, in epoch order, with the retired floors as "remove"
// events. A plain GET of it finds no document.
const AllPath = "/.all"

// retireMark says when a retired floor was set: its place in the store's
// floor count, and the store epoch it followed. It is not persisted: a
// floor a store recovered has the zero mark.
type retireMark struct{ seq, epoch uint64 }

// retiredFloor is one "remove" event of an all-paths stream.
type retiredFloor struct {
	path    string
	version uint64
	retireMark
}

// retireLocked sets path's retired floor and marks when. Caller holds
// s.mu.
func (s *Store) retireLocked(path string, version uint64) {
	s.retired[path] = version
	s.retireSeq++
	s.retiredAt[path] = retireMark{seq: s.retireSeq, epoch: s.epoch}
}

// unretireLocked drops path's retired floor: a version outranks it.
// Caller holds s.mu.
func (s *Store) unretireLocked(path string) {
	delete(s.retired, path)
	delete(s.retiredAt, path)
}

// followCounters are the all-paths streams' counters: the leader's
// ReplicationStats, kept apart from Fanout.
type followCounters struct {
	pump                         PumpCounters // heartbeats, evictions
	bootstraps, batches, removes atomic.Uint64
}

// leaderStats is the Replication block of a store no follower drives: st
// is the rest of its stats, floor its journal floor.
func (s *Store) leaderStats(st StoreStats, floor uint64) *ReplicationStats {
	c := &s.follow
	batches, removes := c.batches.Load(), c.removes.Load()
	return &ReplicationStats{
		Role:       "leader",
		Generation: st.Generation,
		LSN:        st.Epoch,
		FloorLSN:   floor,
		Tails:      s.allWatchers.count(),
		Records:    batches + removes,
		Batches:    batches,
		Removes:    removes,
		Bootstraps: c.bootstraps.Load(),
		Heartbeats: c.pump.Heartbeats.Load(),
		Evictions:  c.pump.Evictions.Load(),
	}
}

// followView is one all-paths pump's per-wake read of the store.
type followView struct {
	// events are the journal entries past the cursor or, on a reset, every
	// current document (unsorted).
	events []StoreEvent
	// floors are the retired floors the stream has not sent (unsorted).
	floors      []retiredFloor
	reset       bool
	closed      bool
	gen, epoch  uint64
	retireCount uint64
}

// followCollect gathers, under one mu acquisition, what an all-paths pump
// owes a stream whose cursor is afterEpoch and which has seen afterSeq
// floors set. The journal serves the cursor when it covers it; otherwise —
// the cursor is below the journal floor or past the store's epoch, or a
// connecting stream names no epoch (0) of a store that has one — the view
// is a reset: every current document. A connecting or reset stream gets
// every floor, a live one those set since afterSeq. Buffers are reused
// from evs and floors.
func (s *Store) followCollect(afterEpoch, afterSeq uint64, connecting bool, evs []StoreEvent, floors []retiredFloor) followView {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := followView{events: evs[:0], floors: floors[:0], closed: s.closed,
		gen: s.generation, epoch: s.epoch, retireCount: s.retireSeq}
	v.reset = afterEpoch > s.epoch || afterEpoch < s.floorEpoch || connecting && afterEpoch == 0 && s.epoch > 0
	switch {
	case v.reset:
		for _, ev := range s.docs {
			v.events = append(v.events, ev)
		}
	case afterEpoch < s.epoch:
		v.events = append(v.events, s.journalFromLocked(afterEpoch)...)
	}
	if all := connecting || v.reset; all || afterSeq != s.retireSeq {
		for path, version := range s.retired {
			if m := s.retiredAt[path]; all || m.seq > afterSeq {
				v.floors = append(v.floors, retiredFloor{path, version, m})
			}
		}
	}
	return v
}

// allSource feeds one all-paths stream's pump: every commit past the
// stream's epoch cursor as SSE events carrying the journal's payload bytes
// ("replay" at connect, "version" live, "snapshot" on a reset), with each
// retired floor as a "remove" event at its place in epoch order. Floors
// are state, not history: a connect or reset resends them all, and the
// follower's apply skips a floor a newer version outranks. Its lag budget
// is the journal: MaxWatcherLag does not apply, and a stream the journal
// no longer covers is reset, not evicted.
type allSource struct {
	sseLiveness
	st  *Store
	gen uint64 // the generation the stream opened under
	// cursor is the store epoch delivered through; retireCount the floors
	// set by then.
	cursor, retireCount uint64
	live                bool
	events              []StoreEvent   // reused across wakes
	floors              []retiredFloor // reused across wakes
	frame, data         []byte         // reused across events
}

// Collect implements PumpSource.
func (src *allSource) Collect(w io.Writer) bool {
	st := src.st
	connecting := !src.live
	v := st.followCollect(src.cursor, src.retireCount, connecting, src.events, src.floors)
	src.events, src.floors = v.events, v.floors
	if v.closed || v.gen != src.gen {
		return false // see streamSource.Collect
	}
	src.live = true
	event := "version"
	switch {
	case v.reset:
		event = "snapshot"
		slices.SortFunc(v.events, func(a, b StoreEvent) int { return cmp.Compare(a.Doc.Epoch, b.Doc.Epoch) })
		st.follow.bootstraps.Add(1)
	case connecting:
		event = "replay"
	}
	slices.SortFunc(v.floors, func(a, b retiredFloor) int { return cmp.Compare(a.seq, b.seq) })
	floors := v.floors
	for _, ev := range v.events {
		for len(floors) > 0 && floors[0].epoch < ev.Doc.Epoch {
			src.emitFloor(w, floors[0])
			floors = floors[1:]
		}
		src.frame = appendEvent(src.frame[:0], ev.Doc.Epoch, event, ev.Payload)
		_, _ = w.Write(src.frame)
	}
	for _, f := range floors {
		src.emitFloor(w, f)
	}
	st.follow.batches.Add(uint64(len(v.events)))
	st.follow.removes.Add(uint64(len(v.floors)))
	src.cursor, src.retireCount = v.epoch, v.retireCount
	clear(src.events) // pin no document past its eviction
	return true
}

// emitFloor writes one retired floor: {"path":...,"version":N}.
func (src *allSource) emitFloor(w io.Writer, f retiredFloor) {
	d := append(src.data[:0], `{"path":`...)
	d = jsonstr.Append(d, f.path)
	d = append(d, `,"version":`...)
	d = strconv.AppendUint(d, f.version, 10)
	src.data = append(d, '}')
	src.frame = appendEvent(src.frame[:0], f.epoch, "remove", src.data)
	_, _ = w.Write(src.frame)
}

// SetReadOnly marks the store as a replica: PublishVersioned and Remove
// become no-ops (returning 0), so the only writers are the replication
// apply methods below. The Interface Server pairs this with
// Server.LeaderURL, which misdirects HTTP writes to the leader with a
// 421.
//
// A replica serves its leader's generation, never an incarnation count of
// its own, so marking a recovered durable store read-only also puts back
// the generation it recovered — the leader's it last adopted — in place
// of OpenStore's bump, and snapshots it: a follower that stops before it
// reaches its leader leaves its directory resumable under that leader.
func (s *Store) SetReadOnly(ro bool) {
	s.deliverMu.Lock()
	s.mu.Lock()
	s.readOnly = ro
	if ro && !s.closed && s.recovered != 0 && s.generation != s.recovered {
		s.generation = s.recovered
		_ = s.snapshotLocked() // a failure is counted in PersistErrors
	}
	s.mu.Unlock()
	s.deliverMu.Unlock()
}

// AdoptGeneration overrides the store's restart generation with the
// replication leader's. A follower serves the leader's generation on
// every response, so a watcher failing over between replicas — or from
// the leader to a replica — does not misread the switch as a state-loss
// restart. It reports whether gen is the generation the store recovered
// from its data directory: only then is the recovered state a prefix of
// gen's commits that a follower may resume from its epoch.
//
// A store that holds state under another generation does not adopt gen:
// that state belongs to a dead incarnation, and the caller wipes it with
// ResetReplicated(gen), which adopts gen and snapshots the empty state in
// one step, so no crash finds gen on disk beside the dead incarnation's
// documents. Otherwise a durable store snapshots the adopted value at
// once, so a crash after adoption still recovers it.
func (s *Store) AdoptGeneration(gen uint64) bool {
	if gen == 0 || !s.beginWrite(false) {
		return false
	}
	match := gen == s.recovered
	if (match || s.epoch == 0) && s.generation != gen {
		s.generation = gen
		_ = s.snapshotLocked() // a failure is counted in PersistErrors
	}
	s.mu.Unlock()
	s.deliverMu.Unlock()
	return match
}

// ResetReplicated wipes a replica's state for a new leader incarnation:
// documents, retired floors, the replay journal, and the epoch counter
// all reset, and the new generation is adopted. The follower calls it
// when a stream's generation header reveals a generation change — the old
// incarnation's versions and epochs mean nothing under the new
// one, and leaving them in place would make the version filter silently
// skip the new leader's lower-numbered commits. Parked waiters wake (the
// snapshot reset that follows rebuilds state), held watch
// streams end on their next generation check so clients reconnect and
// read the new generation — their ordinary restart signal — and a
// durable replica snapshots the cleared state so its own restart cannot
// resurrect the dead incarnation's documents.
func (s *Store) ResetReplicated(gen uint64) {
	if !s.beginWrite(false) {
		return
	}
	s.docs = make(map[string]StoreEvent)
	s.retired = make(map[string]uint64)
	s.retiredAt = make(map[string]retireMark)
	s.journal = nil
	s.epoch = 0
	s.floorEpoch = 0
	if gen != 0 {
		s.generation = gen
	}
	_ = s.snapshotLocked() // a failure is counted in PersistErrors
	s.mu.Unlock()
	s.deliverMu.Unlock()
	// Wake everything: parked waiters re-check, and held stream pumps see
	// the generation change on their next collect and unwind.
	s.wakeAllWatchers()
}

// CloneState returns a copy of the store's persistent state (documents,
// retired floors, epoch, generation, journal).
func (s *Store) CloneState() PersistentState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stateLocked(true)
}

// SetReplicationStats installs the replication subsystem's counter
// callback; Stats() invokes it to fill StoreStats.Replication. fn must be
// safe for concurrent use and must not call back into Stats.
func (s *Store) SetReplicationStats(fn func() *ReplicationStats) {
	s.mu.Lock()
	s.replStats = fn
	s.mu.Unlock()
}

// ReplicationStats is the replication counter block surfaced in
// StoreStats (and the /.stats endpoint): a follower's, or the leader's
// counts of the all-paths streams it serves. The field names predate the
// epoch cursor (LSN, FloorLSN, LeaderLSN and Lag count store epochs).
type ReplicationStats struct {
	// Role is "leader" or "follower".
	Role string
	// LeaderURL is the leader a follower watches ("" on the leader).
	LeaderURL string
	// Generation is the replication generation every replica serves: the
	// leader's store generation, adopted by followers.
	Generation uint64
	// LSN is the stream position: the leader's store epoch, or the
	// follower's last applied epoch.
	LSN uint64
	// FloorLSN is the leader's journal floor; a follower whose cursor is
	// below it gets a snapshot reset.
	FloorLSN uint64
	// LeaderLSN is the follower's view of the leader's epoch (from stream
	// headers and events).
	LeaderLSN uint64
	// Lag is the follower's backlog: LeaderLSN-LSN.
	Lag uint64
	// Records counts events shipped (leader) or applied (follower):
	// Batches the versions, Removes the retired floors.
	Records          uint64
	Batches, Removes uint64
	// Bootstraps counts snapshot resets served or applied.
	Bootstraps uint64
	// Heartbeats counts liveness comments the leader wrote to all-paths
	// streams (a follower's reader skips them).
	Heartbeats uint64
	// Reconnects counts follower reconnects after broken streams.
	Reconnects uint64
	// Evictions counts all-paths streams the leader dropped for
	// backpressure — a peer whose writes missed the write deadline.
	Evictions uint64
	// Resets counts streams whose generation header revealed a new leader
	// incarnation — each wiped the follower's state, which it then rebuilt
	// from epoch 0 under the new generation.
	Resets uint64
	// FrameErrors counts "data:" lines a follower refused because they did
	// not decode — each ends the stream, and the follower re-fetches from
	// its last applied epoch.
	FrameErrors uint64
	// Tails is the leader's count of currently held all-paths streams.
	Tails int
}

// ApplyReplicated commits a batch of replicated events into the store,
// installing the leader's versions and epochs verbatim: documents update,
// the journal extends, persistence appends, and watchers fan out the
// leader's exact payload bytes. Every event must carry its Payload (a
// follower's is the "data:" line it read): the store keeps and splices
// those bytes and never encodes a replicated version itself. A follower
// applies the leader's events in the leader's commit order, so the journal
// only ever appends. Events at or below the path's current version (or its
// retired floor) are skipped, which makes re-applying an overlapping event
// — a reconnect, a snapshot reset, a durable-cursor lag window — both
// miss-free and duplicate-free. It returns the number of events applied.
func (s *Store) ApplyReplicated(evs []StoreEvent) int {
	if !s.beginWrite(false) {
		return 0
	}
	var fresh []StoreEvent
	for _, ev := range evs {
		if cur, ok := s.docs[ev.Path]; ok && ev.Doc.Version <= cur.Doc.Version {
			continue
		}
		if rv, retired := s.retired[ev.Path]; retired && ev.Doc.Version <= rv {
			continue
		}
		s.unretireLocked(ev.Path)
		s.docs[ev.Path] = ev
		if fresh == nil {
			fresh = make([]StoreEvent, 0, len(evs))
		}
		fresh = append(fresh, ev)
	}
	if len(fresh) > 0 {
		s.epoch = max(s.epoch, fresh[len(fresh)-1].Doc.Epoch)
	}
	s.endWrite(StoreOp{Events: fresh})
	return len(fresh)
}

// ApplyReplicatedRemove retires a path from a replicated floor.
// A committed version newer than the removed one outranks the (stale)
// remove; without a committed document the retired floor is still
// adopted so a later republication resumes the leader's sequence. It
// reports whether a document was actually retired.
func (s *Store) ApplyReplicatedRemove(path string, version uint64) bool {
	if !s.beginWrite(false) {
		return false
	}
	var op StoreOp
	switch ev, ok := s.docs[path]; {
	case ok && ev.Doc.Version > version:
	case !ok:
		if s.retired[path] < version {
			s.retireLocked(path, version)
		}
	default:
		s.retireLocked(path, version)
		delete(s.docs, path)
		op = StoreOp{RemovePath: path, RemoveVersion: version}
	}
	s.endWrite(op)
	return op.RemovePath != ""
}

// ShardOf is FNV-1a over path, mod shards — the hash the watcher registry
// stripes its locks by. The benchmark's input generator (bench/inputs.go)
// names it, with repl.DefaultTailShards, to pick its class names; it stays
// exported for that.
func ShardOf(path string, shards int) int {
	return shardOf(path, shards)
}

// DecodeFrame parses the WAL record at the head of data, returning its
// kind, payload, and total size, or ok=false when the head is not a
// complete, CRC-valid record. Only the benchmark's probes (bench/) call it.
func DecodeFrame(data []byte) (kind byte, payload []byte, n int, ok bool) {
	rec, n, ok := decodeWALRecord(data)
	if !ok {
		return 0, nil, 0, false
	}
	return rec.kind, rec.payload, n, true
}

// EncodeCommitFrame renders one committed batch as a CRC-framed WAL commit
// record in one allocation, splicing the events' commit-time payloads.
// Only the benchmark's probes (bench/) call it.
func EncodeCommitFrame(lsn uint64, evs []StoreEvent) []byte {
	return appendCommitRecord(nil, lsn, evs)
}

// DecodeCommitFrame parses a commit-record payload back into its lsn and
// events, as WAL recovery does. Only the benchmark's probes (bench/) call
// it.
func DecodeCommitFrame(payload []byte) (uint64, []StoreEvent, error) {
	return decodeCommitPayload(payload)
}

// EventPayload marshals one committed version into the shared wire form
// (the SSE "data:" line / WAL commit element). The store never needs it —
// every committed event keeps its bytes — so only the benchmark's probes
// (bench/) call it, to time the encode and to build replicated events.
func EventPayload(path string, d Document) []byte {
	return encodeEventPayload(path, d)
}
