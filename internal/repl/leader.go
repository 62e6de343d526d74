package repl

import (
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"livedev/internal/ifsvr"
)

// DefaultTailShards was the replication stream count when the tail was
// split by path hash.
//
// Deprecated: replication is one record stream; nothing in this package
// reads it. It stays, with its value, because the benchmark's input
// generator (bench/inputs.go) names it with ifsvr.ShardOf to pick its
// class names, and changing it would change the benchmark's documents.
const DefaultTailShards = 4

// DefaultTailHistory bounds the in-memory record ring: how far behind a
// follower may fall and still resume by tailing. A follower below the
// ring's floor is bootstrapped from a snapshot instead.
const DefaultTailHistory = 256

// DefaultTailHeartbeat paces liveness records on idle tail streams.
const DefaultTailHeartbeat = 15 * time.Second

// DefaultTailWriteTimeout bounds each tail-response write when
// TailConfig.WriteTimeout is zero: a follower (or any tail client) that
// cannot absorb a record within this budget is evicted rather than
// allowed to pin its serving goroutine — it reconnects from its durable
// cursor like any broken tail.
const DefaultTailWriteTimeout = 5 * time.Second

// TailConfig configures a leader's TailServer. The zero value uses the
// defaults above.
type TailConfig struct {
	// History bounds the record ring (0 means DefaultTailHistory; negative
	// keeps nothing — every resume bootstraps). The ring holds committed
	// batches, sharing the journal's payload bytes, and retirements; each
	// is framed at send time. The ring is also the tail plane's lag
	// budget: a client that falls more than History records behind loses
	// its cursor to eviction from the ring and is snapshot-bootstrapped on
	// its next collect instead of tailing the gap.
	History int
	// Heartbeat paces idle-stream liveness records (0 means
	// DefaultTailHeartbeat).
	Heartbeat time.Duration
	// WriteTimeout bounds each batch written to a tail (0 means
	// DefaultTailWriteTimeout; negative disables the deadline). A batch
	// missing it counts as an eviction in ReplicationStats.
	WriteTimeout time.Duration
}

// TailServer is the leader half of replication: it taps the store's
// logged operations (Subscribe), keeps each as one record of a ring,
// in commit order, and serves the WAL-tail endpoint — handshake,
// record streaming from a given lsn, snapshot bootstrap when the cursor
// has been compacted away, and heartbeats. Mount it on the Interface
// Server at TailPath (Attach does both steps). Held tails are served by
// the same delivery pump as the watch streams (ifsvr.Pump.Run): this
// package supplies only the source — CRC frames over the ring — and the
// policy numbers.
type TailServer struct {
	store   *ifsvr.Store
	gen     uint64
	history int
	// pump is the held-tail policy: write deadline, heartbeat interval and
	// shared sweep, the drain signal, and the heartbeat/eviction counters.
	pump   ifsvr.PumpConfig
	cancel func()
	// primed marks a store that already held state when this tail server
	// was created (a durable leader after restart): that state predates
	// the ring, so a fresh follower's after=0 cursor must be answered with
	// a snapshot bootstrap, not an empty stream.
	primed bool

	// drain is closed when the leader begins a graceful shutdown; held
	// tail streams end so the HTTP server's Shutdown is not stalled by
	// parked followers (they reconnect through their ordinary retry path).
	drain     chan struct{}
	drainOnce sync.Once

	// mu guards the ring: lsns contiguous and ascending, plus the pumps of
	// the tails held on it and the shipping counters.
	mu      sync.Mutex
	lsn     uint64 // last assigned lsn (0 before the first record)
	records []tailRecord
	tails   map[*ifsvr.Pump]struct{} // nudged on every append
	stats   struct{ records, batches, removes, bootstraps uint64 }
}

// tailRecord is one logged operation of the ring: a committed batch,
// whose events keep their payload bytes but not their text, or (events
// nil) the retirement of path at version.
type tailRecord struct {
	lsn     uint64
	events  []ifsvr.StoreEvent
	path    string
	version uint64
}

// NewTailServer builds a tail server over st and starts tapping its
// operations. Call Close to stop the tap.
func NewTailServer(st *ifsvr.Store, cfg TailConfig) *TailServer {
	history := cfg.History
	switch {
	case history == 0:
		history = DefaultTailHistory
	case history < 0:
		history = 0
	}
	hb := cfg.Heartbeat
	if hb <= 0 {
		hb = DefaultTailHeartbeat
	}
	wt := cfg.WriteTimeout
	switch {
	case wt == 0:
		wt = DefaultTailWriteTimeout
	case wt < 0:
		wt = 0
	}
	t := &TailServer{
		store:   st,
		gen:     st.Generation(),
		history: history,
		primed:  st.Epoch() > 0,
		drain:   make(chan struct{}),
		tails:   make(map[*ifsvr.Pump]struct{}),
	}
	t.pump = ifsvr.PumpConfig{
		WriteTimeout: wt,
		Heartbeat:    hb,
		Sweep:        ifsvr.NewPumpSweep(hb / 2),
		Drain:        t.drain,
		Counters:     new(ifsvr.PumpCounters),
	}
	t.cancel = st.Subscribe(t.append)
	st.SetReplicationStats(t.replicationStats)
	return t
}

// Attach builds a tail server over st and mounts it on srv at TailPath —
// the one-call way to make an Interface Server a replication leader.
func Attach(st *ifsvr.Store, srv *ifsvr.Server, cfg TailConfig) *TailServer {
	t := NewTailServer(st, cfg)
	srv.Handle(TailPath, t)
	return t
}

// Drain ends every held tail stream so a graceful HTTP Shutdown of the
// hosting server is not stalled by parked followers — each reconnects
// from its durable cursor through its ordinary retry path (and finds the
// leader gone, backing off until a new one appears). Idempotent; Drain
// does not stop the store tap, so a leader can keep committing while its
// HTTP plane drains.
func (t *TailServer) Drain() {
	t.drainOnce.Do(func() { close(t.drain) })
}

// Close stops tapping the store. Held tail streams drain when their
// clients go away (or the HTTP server closes).
func (t *TailServer) Close() {
	if t.cancel != nil {
		t.cancel()
		t.cancel = nil
	}
}

// append keeps one logged operation as the ring's next record. It runs on
// the committing goroutine, under the store's delivery lock — keep it
// cheap.
func (t *TailServer) append(op ifsvr.StoreOp) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lsn++
	rec := tailRecord{lsn: t.lsn, path: op.RemovePath, version: op.RemoveVersion}
	if op.RemovePath != "" {
		t.stats.removes++
	} else {
		// A copy, not op.Events: those documents hold their text.
		rec.events = make([]ifsvr.StoreEvent, len(op.Events))
		for i, ev := range op.Events {
			ev.Doc.Content = ""
			rec.events[i] = ev
		}
		t.stats.batches++
	}
	t.stats.records++
	if t.history > 0 {
		t.records = append(t.records, rec)
		if over := len(t.records) - t.history; over > 0 {
			copy(t.records, t.records[over:])
			t.records = t.records[:t.history]
		}
	}
	for p := range t.tails {
		p.Nudge()
	}
}

// floorLocked is the oldest serveable "after" cursor: one below the
// oldest retained record, or the head when the ring is empty. Caller
// holds t.mu.
func (t *TailServer) floorLocked() uint64 {
	if len(t.records) == 0 {
		return t.lsn
	}
	return t.records[0].lsn - 1
}

// ServeHTTP implements the WAL-tail endpoint: the handshake without an
// after parameter, the record stream with one.
func (t *TailServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set(GenerationHeader, strconv.FormatUint(t.gen, 10))
	w.Header().Set("Cache-Control", "no-store")
	q := r.URL.Query()
	if !q.Has("after") {
		t.serveHello(w)
		return
	}
	after, err := strconv.ParseUint(q.Get("after"), 10, 64)
	if err != nil {
		http.Error(w, "bad after cursor", http.StatusBadRequest)
		return
	}
	t.serveTail(w, r, after)
}

func (t *TailServer) serveHello(w http.ResponseWriter) {
	h := Hello{Schema: Schema, Generation: t.gen, Epoch: t.store.Epoch()}
	t.mu.Lock()
	h.LSN = t.lsn
	h.Floor = t.floorLocked()
	t.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(h)
}

// serveTail streams the records past `after` until the client goes away
// or the leader drains: pending records (one flush per collect, not per
// record), then live pushes as they commit, heartbeats when idle. The
// held-connection policy — write deadline, eviction, heartbeat sweep — is
// the delivery pump's; see ifsvr/pump.go and "Backpressure and eviction"
// in docs/watch-protocol.md.
func (t *TailServer) serveTail(w http.ResponseWriter, r *http.Request, after uint64) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", TailContentType)
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	// Register with the ring BEFORE the first collect: a record pushed in
	// between must nudge the pump, not vanish.
	p := ifsvr.NewPump()
	t.mu.Lock()
	t.tails[p] = struct{}{}
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.tails, p)
		t.mu.Unlock()
	}()
	p.Run(w, r, t.pump, &tailSource{t: t, cursor: after})
}

// tailSource feeds one held tail's pump from the ring: CRC frames past an
// lsn cursor. This plane's answer to a cursor the ring cannot serve —
// compacted away, past the head (the follower outlived a leader restart,
// or sent the forced-bootstrap sentinel), or zero against a primed store
// whose state predates the ring — is one inline bootstrap record, after
// which tailing resumes from the bootstrap's lsn.
type tailSource struct {
	t      *TailServer
	cursor uint64
	// booted guards the primed-store rule: a fresh follower (after=0)
	// against a store that predates the ring gets one state transfer,
	// after which a zero cursor (an empty log's head) is ordinary.
	booted bool
	// pending (the records past the cursor) and frame (the one being
	// sent) are reused across collects.
	pending []tailRecord
	frame   []byte
}

// Collect implements ifsvr.PumpSource.
func (src *tailSource) Collect(w io.Writer) bool {
	t := src.t
	var needBootstrap bool
	src.pending, needBootstrap = t.collect(src.cursor, src.pending[:0])
	if t.primed && src.cursor == 0 && !src.booted {
		needBootstrap = true
	}
	if needBootstrap {
		// Records pushed after the bootstrap captured its lsn have nudged
		// the pump, so the next collect tails them.
		src.booted = true
		var frame []byte
		frame, src.cursor = t.bootstrap()
		_, _ = w.Write(frame)
		t.mu.Lock()
		t.stats.bootstraps++
		t.mu.Unlock()
		return true
	}
	for _, rec := range src.pending {
		if rec.events == nil {
			src.frame = ifsvr.AppendRemoveFrame(src.frame[:0], rec.lsn, rec.path, rec.version)
		} else {
			src.frame = ifsvr.AppendCommitFrame(src.frame[:0], rec.lsn, rec.events)
		}
		_, _ = w.Write(src.frame)
		src.cursor = rec.lsn
	}
	clear(src.pending) // pin no record past its eviction from the ring
	return true
}

// Heartbeat implements ifsvr.PumpSource: the liveness record.
func (src *tailSource) Heartbeat(w io.Writer) { _, _ = w.Write(encodeHeartbeatFrame(src.cursor)) }

// Farewell implements ifsvr.PumpSource. A drained tail just ends; the
// follower reconnects from its durable cursor.
func (src *tailSource) Farewell(io.Writer) {}

// collect appends to buf the records past cursor (none when caught up),
// or reports that the cursor is unserveable and the tail must bootstrap.
func (t *TailServer) collect(cursor uint64, buf []tailRecord) (_ []tailRecord, needBootstrap bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cursor > t.lsn || cursor < t.floorLocked() {
		return buf, true
	}
	idx := sort.Search(len(t.records), func(i int) bool { return t.records[i].lsn > cursor })
	return append(buf, t.records[idx:]...), false
}

// bootstrap packs the store's whole current state into a bootstrap frame,
// splicing each document's commit-time bytes. The log position L is
// captured BEFORE the state clone: the state then covers at least every
// record ≤ L, streaming resumes after L, and any overlap (a record
// committed between the two reads) is deduplicated by the follower's
// version filter.
func (t *TailServer) bootstrap() ([]byte, uint64) {
	t.mu.Lock()
	lsn := t.lsn
	t.mu.Unlock()
	state := t.store.CloneState()
	evs := slices.Collect(maps.Values(state.Docs))
	sort.Slice(evs, func(i, j int) bool { return evs[i].Doc.Epoch < evs[j].Doc.Epoch })
	return encodeBootstrapFrame(lsn, t.gen, state.Epoch, evs, state.Retired), lsn
}

// replicationStats is the leader's StoreStats.Replication block.
func (t *TailServer) replicationStats() *ifsvr.ReplicationStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return &ifsvr.ReplicationStats{
		Role:       "leader",
		Generation: t.gen,
		LSN:        t.lsn,
		FloorLSN:   t.floorLocked(),
		Tails:      len(t.tails),
		Records:    t.stats.records,
		Batches:    t.stats.batches,
		Removes:    t.stats.removes,
		Bootstraps: t.stats.bootstraps,
		Heartbeats: t.pump.Counters.Heartbeats.Load(),
		Evictions:  t.pump.Counters.Evictions.Load(),
	}
}
