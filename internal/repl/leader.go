package repl

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"livedev/internal/ifsvr"
)

// DefaultTailShards is the replication shard count: how many independent
// record streams a follower tails concurrently. It is a transport-level
// partition (by the same path hash as the durable WAL layout) and need
// not match the store's on-disk shard count.
const DefaultTailShards = 4

// DefaultTailHistory bounds each shard's in-memory record ring: how far
// behind a follower may fall and still resume by tailing. A follower
// below the ring's floor is bootstrapped from a snapshot instead.
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
	// Shards is the replication stream count (0 means DefaultTailShards).
	Shards int
	// History bounds each shard's record ring (0 means
	// DefaultTailHistory; negative keeps nothing — every resume
	// bootstraps). The ring is also the tail plane's lag budget: a client
	// that falls more than History records behind loses its cursor to
	// eviction from the ring and is snapshot-bootstrapped on its next
	// collect instead of tailing the gap.
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
// logged operations (SubscribeOps), frames them into per-shard record
// rings, and serves the WAL-tail endpoint — handshake, record streaming
// from a given lsn, snapshot bootstrap when the cursor has been compacted
// away, and heartbeats. Mount it on the Interface Server at TailPath
// (Attach does both steps). Held tails are served by the same delivery
// pump as the watch streams (ifsvr.Pump.Run): this package supplies only
// the source — CRC frames over a shard ring — and the policy numbers.
type TailServer struct {
	store   *ifsvr.Store
	gen     uint64
	shards  int
	history int
	// pump is the held-tail policy: write deadline, heartbeat interval and
	// shared sweep, the drain signal, and the heartbeat/eviction counters.
	pump   ifsvr.PumpConfig
	cancel func()
	// primed marks a store that already held state when this tail server
	// was created (a durable leader after restart): that state predates
	// every ring, so a fresh follower's after=0 cursor must be answered
	// with a snapshot bootstrap, not an empty stream.
	primed bool

	// drain is closed when the leader begins a graceful shutdown; held
	// tail streams end so the HTTP server's Shutdown is not stalled by
	// parked followers (they reconnect through their ordinary retry path).
	drain     chan struct{}
	drainOnce sync.Once

	mu   sync.Mutex
	logs []*shardLog

	statsMu sync.Mutex
	stats   struct{ records, batches, removes, bootstraps uint64 }
}

// shardLog is one shard's bounded ring of framed records, lsns
// contiguous and ascending, plus the pumps of the tails held on it.
type shardLog struct {
	mu     sync.Mutex
	lsn    uint64 // last assigned lsn (0 before the first record)
	frames []tailFrame
	tails  map[*ifsvr.Pump]struct{} // nudged on every append
}

type tailFrame struct {
	lsn  uint64
	data []byte
}

// NewTailServer builds a tail server over st and starts tapping its
// operations. Call Close to stop the tap.
func NewTailServer(st *ifsvr.Store, cfg TailConfig) *TailServer {
	shards := cfg.Shards
	if shards <= 0 {
		shards = DefaultTailShards
	}
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
		shards:  shards,
		history: history,
		primed:  st.Epoch() > 0,
		drain:   make(chan struct{}),
		logs:    make([]*shardLog, shards),
	}
	t.pump = ifsvr.PumpConfig{
		WriteTimeout: wt,
		Heartbeat:    hb,
		Sweep:        ifsvr.NewPumpSweep(hb / 2),
		Drain:        t.drain,
		Counters:     new(ifsvr.PumpCounters),
	}
	for i := range t.logs {
		t.logs[i] = &shardLog{tails: make(map[*ifsvr.Pump]struct{})}
	}
	t.cancel = st.SubscribeOps(t.append)
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

// append frames one logged operation into its shard ring. It runs on the
// committing goroutine, under the store's delivery lock — keep it cheap.
func (t *TailServer) append(op ifsvr.StoreOp) {
	if op.RemovePath != "" {
		i := ifsvr.ShardOf(op.RemovePath, t.shards)
		sl := t.logs[i]
		sl.mu.Lock()
		sl.lsn++
		sl.push(tailFrame{lsn: sl.lsn, data: ifsvr.EncodeRemoveFrame(sl.lsn, op.RemovePath, op.RemoveVersion)}, t.history)
		sl.mu.Unlock()
		t.statsMu.Lock()
		t.stats.removes++
		t.stats.records++
		t.statsMu.Unlock()
		return
	}
	// One commit batch may span shards; each shard gets one commit record
	// holding its slice of the batch, in batch order.
	var groups [][]ifsvr.StoreEvent
	var touched []int
	for _, ev := range op.Events {
		i := ifsvr.ShardOf(ev.Path, t.shards)
		if groups == nil {
			groups = make([][]ifsvr.StoreEvent, t.shards)
		}
		if groups[i] == nil {
			touched = append(touched, i)
		}
		groups[i] = append(groups[i], ev)
	}
	for _, i := range touched {
		sl := t.logs[i]
		sl.mu.Lock()
		sl.lsn++
		sl.push(tailFrame{lsn: sl.lsn, data: ifsvr.EncodeCommitFrame(sl.lsn, groups[i])}, t.history)
		sl.mu.Unlock()
	}
	if len(touched) > 0 {
		t.statsMu.Lock()
		t.stats.batches++
		t.stats.records += uint64(len(touched))
		t.statsMu.Unlock()
	}
}

// push appends fr and evicts past the capacity, waking the held tails.
// Caller holds sl.mu.
func (sl *shardLog) push(fr tailFrame, history int) {
	if history > 0 {
		sl.frames = append(sl.frames, fr)
		if over := len(sl.frames) - history; over > 0 {
			copy(sl.frames, sl.frames[over:])
			sl.frames = sl.frames[:history]
		}
	}
	for p := range sl.tails {
		p.Nudge()
	}
}

// floorLocked is the oldest serveable "after" cursor: one below the
// oldest retained frame, or the head when the ring is empty. Caller
// holds sl.mu.
func (sl *shardLog) floorLocked() uint64 {
	if len(sl.frames) == 0 {
		return sl.lsn
	}
	return sl.frames[0].lsn - 1
}

// ServeHTTP implements the WAL-tail endpoint.
func (t *TailServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set(GenerationHeader, strconv.FormatUint(t.gen, 10))
	w.Header().Set(ShardsHeader, strconv.Itoa(t.shards))
	w.Header().Set("Cache-Control", "no-store")
	q := r.URL.Query()
	shardParam := q.Get("shard")
	if shardParam == "" {
		t.serveHello(w)
		return
	}
	shard, err := strconv.Atoi(shardParam)
	if err != nil || shard < 0 || shard >= t.shards {
		http.Error(w, "shard out of range", http.StatusBadRequest)
		return
	}
	after, _ := strconv.ParseUint(q.Get("after"), 10, 64)
	t.serveTail(w, r, shard, after)
}

func (t *TailServer) serveHello(w http.ResponseWriter) {
	h := Hello{
		Schema:     Schema,
		Generation: t.gen,
		Shards:     t.shards,
		Epoch:      t.store.Epoch(),
		LSNs:       make([]uint64, t.shards),
		Floors:     make([]uint64, t.shards),
	}
	for i, sl := range t.logs {
		sl.mu.Lock()
		h.LSNs[i] = sl.lsn
		h.Floors[i] = sl.floorLocked()
		sl.mu.Unlock()
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(h)
}

// serveTail streams shard records past `after` until the client goes
// away or the leader drains: pending records (one flush per collect, not
// per record), then live pushes as they commit, heartbeats when idle. The
// held-connection policy — write deadline, eviction, heartbeat sweep — is
// the delivery pump's; see ifsvr/pump.go and "Backpressure and eviction"
// in docs/watch-protocol.md.
func (t *TailServer) serveTail(w http.ResponseWriter, r *http.Request, shard int, after uint64) {
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
	sl := t.logs[shard]
	sl.mu.Lock()
	sl.tails[p] = struct{}{}
	sl.mu.Unlock()
	defer func() {
		sl.mu.Lock()
		delete(sl.tails, p)
		sl.mu.Unlock()
	}()
	p.Run(w, r, t.pump, &tailSource{t: t, shard: shard, cursor: after})
}

// tailSource feeds one held tail's pump from its shard ring: CRC frames
// past an lsn cursor. This plane's answer to a cursor the ring cannot
// serve — compacted away, past the head (the follower outlived a leader
// restart, or sent the forced-bootstrap sentinel), or zero against a
// primed store whose state predates the rings — is one inline bootstrap
// record, after which tailing resumes from the bootstrap's lsn.
type tailSource struct {
	t      *TailServer
	shard  int
	cursor uint64
	// booted guards the primed-store rule: a fresh follower (after=0)
	// against a store that predates the rings gets one state transfer,
	// after which a zero cursor (an empty shard's head) is ordinary.
	booted bool
}

// Collect implements ifsvr.PumpSource.
func (src *tailSource) Collect(w io.Writer) bool {
	t := src.t
	frames, needBootstrap := t.logs[src.shard].collect(src.cursor)
	if t.primed && src.cursor == 0 && !src.booted {
		needBootstrap = true
	}
	if needBootstrap {
		// Records pushed after the bootstrap captured its lsn have nudged
		// the pump, so the next collect tails them.
		src.booted = true
		var frame []byte
		frame, src.cursor = t.bootstrap(src.shard)
		_, _ = w.Write(frame)
		t.statsMu.Lock()
		t.stats.bootstraps++
		t.statsMu.Unlock()
		return true
	}
	for _, fr := range frames {
		_, _ = w.Write(fr.data)
		src.cursor = fr.lsn
	}
	return true
}

// Heartbeat implements ifsvr.PumpSource: the liveness record.
func (src *tailSource) Heartbeat(w io.Writer) { _, _ = w.Write(encodeHeartbeatFrame(src.cursor)) }

// Farewell implements ifsvr.PumpSource. A drained tail just ends; the
// follower reconnects from its durable cursor.
func (src *tailSource) Farewell(io.Writer) {}

// collect snapshots the frames past cursor (nil when caught up), or
// reports that the cursor is unserveable and the tail must bootstrap.
func (sl *shardLog) collect(cursor uint64) (frames []tailFrame, needBootstrap bool) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if cursor > sl.lsn || cursor < sl.floorLocked() {
		return nil, true
	}
	if cursor == sl.lsn {
		return nil, false
	}
	idx := sort.Search(len(sl.frames), func(i int) bool { return sl.frames[i].lsn > cursor })
	return append([]tailFrame(nil), sl.frames[idx:]...), false
}

// bootstrap packs one shard's current state into a bootstrap frame. The
// shard position L is captured BEFORE the state clone: the state then
// covers at least every record ≤ L, streaming resumes after L, and any
// overlap (a record committed between the two reads) is deduplicated by
// the follower's version filter.
func (t *TailServer) bootstrap(shard int) ([]byte, uint64) {
	sl := t.logs[shard]
	sl.mu.Lock()
	lsn := sl.lsn
	sl.mu.Unlock()
	state := t.store.CloneState()
	var evs []ifsvr.StoreEvent
	for path, d := range state.Docs {
		if ifsvr.ShardOf(path, t.shards) != shard {
			continue
		}
		evs = append(evs, ifsvr.StoreEvent{Path: path, Doc: d, Payload: ifsvr.EventPayload(path, d)})
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].Doc.Epoch < evs[j].Doc.Epoch })
	var retired map[string]uint64
	for path, v := range state.Retired {
		if ifsvr.ShardOf(path, t.shards) != shard {
			continue
		}
		if retired == nil {
			retired = make(map[string]uint64)
		}
		retired[path] = v
	}
	return encodeBootstrapFrame(lsn, t.gen, state.Epoch, evs, retired), lsn
}

// replicationStats is the leader's StoreStats.Replication block.
func (t *TailServer) replicationStats() *ifsvr.ReplicationStats {
	rs := &ifsvr.ReplicationStats{
		Role:       "leader",
		Generation: t.gen,
		Shards:     t.shards,
		LSN:        make([]uint64, t.shards),
		FloorLSN:   make([]uint64, t.shards),
	}
	for i, sl := range t.logs {
		sl.mu.Lock()
		rs.LSN[i] = sl.lsn
		rs.FloorLSN[i] = sl.floorLocked()
		rs.Tails += len(sl.tails)
		sl.mu.Unlock()
	}
	t.statsMu.Lock()
	rs.Records = t.stats.records
	rs.Batches = t.stats.batches
	rs.Removes = t.stats.removes
	rs.Bootstraps = t.stats.bootstraps
	t.statsMu.Unlock()
	rs.Heartbeats = t.pump.Counters.Heartbeats.Load()
	rs.Evictions = t.pump.Counters.Evictions.Load()
	return rs
}
