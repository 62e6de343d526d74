package ifsvr

import "encoding/json"

// The replication seam: what the internal/repl package needs from the
// publication store without reaching into its internals.
//
// A replication LEADER taps every logged operation through Subscribe —
// commit batches with their commit-time shared wire payloads, and
// retirements — and ships them to followers as CRC-framed records (the
// WAL record format, re-used as the wire format so the two encoders cannot
// drift). A replication FOLLOWER feeds received records back in through
// ApplyReplicated / ApplyReplicatedRemove, which take the store's one write
// path (journal, fan-out, optional persistence) but install the leader's
// versions and epochs verbatim instead of assigning new ones — so a
// watcher on a follower sees byte-identical events, at identical epochs,
// under the leader's restart generation (AdoptGeneration), and fail-over
// between replicas looks like an ordinary reconnect rather than a
// state-loss restart.

// SetReadOnly marks the store as a replica: PublishVersioned and Remove
// become no-ops (returning 0), so the only writers are the replication
// apply methods below. The Interface Server pairs this with
// Server.LeaderURL, which misdirects HTTP writes to the leader with a
// 421.
func (s *Store) SetReadOnly(ro bool) {
	s.mu.Lock()
	s.readOnly = ro
	s.mu.Unlock()
}

// AdoptGeneration overrides the store's restart generation with the
// replication leader's. A follower serves the leader's generation on
// every response, so a watcher failing over between replicas — or from
// the leader to a replica — does not misread the switch as a state-loss
// restart. The adopted value lands in the next snapshot like a native
// one.
func (s *Store) AdoptGeneration(gen uint64) {
	if gen == 0 {
		return
	}
	s.mu.Lock()
	s.generation = gen
	s.mu.Unlock()
}

// ResetReplicated wipes a replica's state for a new leader incarnation:
// documents, retired floors, the replay journal, and the epoch counter
// all reset, and the new generation is adopted. The follower calls it
// after a re-handshake reveals a generation change — the old
// incarnation's versions and epochs mean nothing under the new
// one, and leaving them in place would make the version filter silently
// skip the new leader's lower-numbered commits. Parked waiters wake (the
// forced snapshot bootstrap that follows rebuilds state), held watch
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
// retired floors, epoch, generation, journal) — what a replication leader
// packs into a snapshot bootstrap for a follower whose cursor has been
// compacted away.
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
// StoreStats (and the /.stats endpoint) when the store is a replication
// leader or follower.
type ReplicationStats struct {
	// Role is "leader" or "follower".
	Role string
	// LeaderURL is the leader a follower tails ("" on the leader).
	LeaderURL string
	// Generation is the replication generation every replica serves: the
	// leader's store generation, adopted by followers.
	Generation uint64
	// LSN is the log position: the leader's last assigned lsn, or the
	// follower's last applied lsn.
	LSN uint64
	// FloorLSN is the leader's oldest still-serveable cursor; a follower
	// below it is bootstrapped from a snapshot.
	FloorLSN uint64
	// LeaderLSN is the follower's view of the leader's lsn (from received
	// records and heartbeats).
	LeaderLSN uint64
	// Lag is the follower's backlog: LeaderLSN-LSN.
	Lag uint64
	// Records counts shipped (leader) or applied (follower) data records.
	Records uint64
	// Batches counts commit batches, Removes retirements.
	Batches, Removes uint64
	// Bootstraps counts snapshot bootstraps served or applied.
	Bootstraps uint64
	// Heartbeats counts liveness records sent or received.
	Heartbeats uint64
	// Reconnects counts follower tail reconnects after broken streams.
	Reconnects uint64
	// Evictions counts tail streams the leader dropped for backpressure —
	// a peer whose writes missed the tail server's write deadline.
	Evictions uint64
	// Resets counts follower re-handshakes that revealed a new leader
	// incarnation (a generation change) — each wiped the local state and
	// re-bootstrapped under the new generation.
	Resets uint64
	// FrameErrors counts torn or CRC-rejected records on the wire — each
	// forces a reconnect and a re-fetch from the last applied lsn.
	FrameErrors uint64
	// Tails is the leader's count of currently held tail streams.
	Tails int
}

// ApplyReplicated commits a batch of replicated events into the store,
// installing the leader's versions and epochs verbatim: documents update,
// the journal extends, persistence appends, and watchers fan out the
// leader's exact payload bytes. Every event must carry its Payload, as
// DecodeCommitFrame's do: the store keeps and splices those bytes and
// never encodes a replicated version itself. A follower applies the
// leader's records in the leader's commit order, so the journal only ever
// appends. Events at or below the path's current version (or its retired
// floor) are skipped, which makes re-applying an overlapping record — a
// reconnect, a bootstrap, a durable-cursor lag window — both miss-free
// and duplicate-free. It returns the number of events applied.
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
		delete(s.retired, ev.Path)
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

// ApplyReplicatedRemove retires a path from a replicated remove record.
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
			s.retired[path] = version
		}
	default:
		s.retired[path] = version
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

// MaxFrame bounds a single replication frame, mirroring the WAL record
// bound: a corrupt length prefix must not drive a giant allocation.
const MaxFrame = walMaxRecord

// Replication frame kinds shared with the WAL record format.
const (
	// FrameCommit is a committed batch: {"lsn":N,"events":[...]} — the
	// exact WAL commit record.
	FrameCommit = walKindCommit
	// FrameRemove is a retirement: {"lsn":N,"path":...,"version":...}.
	FrameRemove = walKindRemove
)

// AppendFrame frames kind+payload in the WAL record format
// ([4B LE length][4B LE CRC-32][kind byte + payload]) onto buf and
// returns the extended slice — the replication transport's (and the
// WAL's) one framing.
func AppendFrame(buf []byte, kind byte, payload []byte) []byte {
	return appendWALRecord(buf, kind, payload)
}

// DecodeFrame parses the frame at the head of data, returning its kind,
// payload, and total size, or ok=false when the head is not a complete,
// CRC-valid frame.
func DecodeFrame(data []byte) (kind byte, payload []byte, n int, ok bool) {
	rec, n, ok := decodeWALRecord(data)
	if !ok {
		return 0, nil, 0, false
	}
	return rec.kind, rec.payload, n, true
}

// EncodeCommitFrame renders one committed batch as a CRC-framed commit
// record in one allocation, splicing the events' commit-time payloads
// without re-marshaling.
func EncodeCommitFrame(lsn uint64, evs []StoreEvent) []byte {
	return appendCommitRecord(nil, lsn, evs)
}

// AppendCommitFrame is EncodeCommitFrame onto buf, which it grows at most
// once: a sender that reuses buf frames without allocating. Only each
// event's Payload is read.
func AppendCommitFrame(buf []byte, lsn uint64, evs []StoreEvent) []byte {
	return appendCommitRecord(buf, lsn, evs)
}

// DecodeCommitFrame parses a commit-record payload back into its lsn and
// events; each event's Payload is re-derived deterministically, once, so
// the bytes a follower keeps and fans out are identical to the leader's.
func DecodeCommitFrame(payload []byte) (uint64, []StoreEvent, error) {
	return decodeCommitPayload(payload)
}

// AppendRemoveFrame frames one retirement as a CRC-framed remove record
// onto buf.
func AppendRemoveFrame(buf []byte, lsn uint64, path string, version uint64) []byte {
	return appendRemoveRecord(buf, lsn, path, version)
}

// DecodeRemoveFrame parses a remove-record payload.
func DecodeRemoveFrame(payload []byte) (lsn uint64, path string, version uint64, err error) {
	var rec walRemove
	if err := json.Unmarshal(payload, &rec); err != nil {
		return 0, "", 0, err
	}
	return rec.Lsn, rec.Path, rec.Version, nil
}

// EventPayload marshals one committed version into the shared wire form
// (the SSE "data:" line / WAL commit element). The store never needs it —
// every committed event keeps its bytes — so only the benchmark's probes
// (bench/) call it, to time the encode and to build replicated events.
func EventPayload(path string, d Document) []byte {
	return encodeEventPayload(path, d)
}
