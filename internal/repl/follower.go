package repl

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"livedev/internal/backoff"
	"livedev/internal/ifsvr"
)

// cursorFile is the follower's sidecar next to its store data: the
// leader generation and per-shard applied lsns a restart resumes from.
// It is written without fsync — the apply path is idempotent, so a
// cursor that lags (or tears and parses as nothing) only widens the
// re-fetch overlap, never loses or duplicates a commit.
const cursorFile = "repl-state.json"

// DefaultRetryDelay is the base reconnect pacing after a broken, torn,
// or corrupt tail stream (and for re-handshake retries while the leader
// is unreachable). Consecutive failures back off exponentially from this
// base — capped and jittered, reset by the next successful record — so a
// follower fleet facing a dead leader does not dial in lockstep forever.
const DefaultRetryDelay = 200 * time.Millisecond

// cursorSaveEvery debounces cursor-sidecar writes on the apply path: the
// sidecar is rewritten at most once per this many applied records (plus
// on bootstrap, on heartbeat while dirty, and on Close), so an edit
// storm does not pay a marshal+WriteFile+Rename per replicated record.
// A cursor that lags by up to a debounce window only widens the restart
// re-fetch overlap, which the version filter deduplicates.
const cursorSaveEvery = 64

// bootstrapCursor is the sentinel applied-lsn meaning "this shard has no
// usable position — force a snapshot bootstrap". It is installed when a
// re-handshake reveals a new leader incarnation (the old lsns mean
// nothing there) and persists in the cursor sidecar, so a follower that
// crashes mid-rebuild still bootstraps on restart. Any cursor past the
// leader's head triggers a bootstrap, so the sentinel needs no
// protocol support.
const bootstrapCursor = ^uint64(0)

// tailVerdict classifies how a tail stream ended.
type tailVerdict int

const (
	// tailRetry is a transient break — connection loss, torn frame, CRC
	// reject: reconnect to the same topology after the retry delay.
	tailRetry tailVerdict = iota
	// tailReset is a topology change — the response headers or a
	// bootstrap frame named a different generation, or the shard no
	// longer exists (HTTP 400): stop tailing and re-handshake.
	tailReset
)

// FollowerConfig configures OpenFollower.
type FollowerConfig struct {
	// Leader is the leader Interface Server's base URL (the TailPath
	// endpoint must be mounted there).
	Leader string
	// Store configures the follower's own store — in-memory by default,
	// durable when Dir is set (the replication cursor persists next to
	// the shards, so a restarted follower resumes tailing from its
	// durable position instead of re-bootstrapping).
	Store ifsvr.StoreConfig
	// HTTPClient overrides the tailing client (nil means a private one).
	HTTPClient *http.Client
	// RetryDelay overrides reconnect pacing (0 means DefaultRetryDelay).
	RetryDelay time.Duration
}

// Follower tails every shard of a leader's WAL concurrently and applies
// the records through the store's commit path into its own (optionally
// durable) store. The store serves doc GETs and SSE watch streams
// read-only under the leader's generation and epochs; Serve
// starts an Interface Server view that additionally answers writes with
// 421 Misdirected Request naming the leader.
//
// A supervisor loop watches for the leader changing underneath the
// tailers: a generation or shard-count mismatch on a tail response's
// headers, a bootstrap frame carrying a foreign generation, or a
// shard-out-of-range rejection all signal a new leader incarnation. The
// supervisor then stops every tailer, re-handshakes, wipes the local
// state (the old incarnation's versions would otherwise shadow the new
// leader's lower-numbered commits), adopts the new generation and shard
// count, and rebuilds the tailers with forced-bootstrap cursors — so
// the replica converges on the new incarnation instead of silently
// serving the dead one.
type Follower struct {
	leader string
	hc     *http.Client
	store  *ifsvr.Store
	iface  *ifsvr.Server
	dir    string
	retry  time.Duration

	cancel  context.CancelFunc
	wg      sync.WaitGroup
	resetCh chan struct{} // tailers signal a topology change (capacity 1)

	curMu     sync.Mutex // serializes cursor-sidecar writes
	mu        sync.Mutex
	gen       uint64
	shards    int
	applied   []uint64 // per-shard last applied lsn (or bootstrapCursor)
	leaderLSN []uint64 // per-shard leader head, from records and heartbeats
	dirty     int      // applied records since the last cursor save
	counters  struct {
		records, batches, removes, bootstraps, heartbeats uint64
		reconnects, resets, frameErrors                   uint64
	}
}

// cursorState is the cursorFile layout.
type cursorState struct {
	Generation uint64   `json:"generation"`
	Shards     int      `json:"shards"`
	Applied    []uint64 `json:"applied"`
}

// OpenFollower handshakes with the leader, opens (or recovers) the local
// store, and starts tailing every shard. The returned follower's store
// is read-only and already adopting the leader's generation.
func OpenFollower(cfg FollowerConfig) (*Follower, error) {
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	retry := cfg.RetryDelay
	if retry <= 0 {
		retry = DefaultRetryDelay
	}
	hello, err := handshake(context.Background(), hc, cfg.Leader)
	if err != nil {
		return nil, err
	}
	st, err := ifsvr.OpenStore(cfg.Store)
	if err != nil {
		return nil, err
	}
	f := &Follower{
		leader:    cfg.Leader,
		hc:        hc,
		store:     st,
		dir:       cfg.Store.Dir,
		retry:     retry,
		resetCh:   make(chan struct{}, 1),
		gen:       hello.Generation,
		shards:    hello.Shards,
		applied:   make([]uint64, hello.Shards),
		leaderLSN: append([]uint64(nil), hello.LSNs...),
	}
	f.iface = ifsvr.NewView(st)
	f.iface.LeaderURL = cfg.Leader
	// Serve the LEADER's restart generation, not our own incarnation
	// count: a watcher failing over between replicas must not misread
	// the replica switch as a state-loss restart.
	st.AdoptGeneration(hello.Generation)
	st.SetReadOnly(true)
	st.SetReplicationStats(f.replicationStats)
	cur, curOK := f.loadCursor()
	switch {
	case curOK && cur.Generation == hello.Generation && cur.Shards == hello.Shards:
		copy(f.applied, cur.Applied)
	case curOK || st.Epoch() > 0:
		// The durable cursor (or the recovered store state, when the
		// cursor tore) belongs to a dead leader incarnation: its
		// versions would shadow the new leader's. Wipe and rebuild.
		f.resetLocked(hello)
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	f.wg.Add(1)
	go f.run(ctx)
	return f, nil
}

// handshake fetches the leader's Hello.
func handshake(ctx context.Context, hc *http.Client, leader string) (Hello, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, leader+TailPath, nil)
	if err != nil {
		return Hello{}, fmt.Errorf("repl: building handshake request: %w", err)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return Hello{}, fmt.Errorf("repl: handshaking with leader %s: %w", leader, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return Hello{}, fmt.Errorf("repl: handshaking with leader %s: HTTP %d", leader, resp.StatusCode)
	}
	var h Hello
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return Hello{}, fmt.Errorf("repl: decoding handshake: %w", err)
	}
	if h.Schema != Schema {
		return Hello{}, fmt.Errorf("repl: leader speaks %q, want %q", h.Schema, Schema)
	}
	if h.Shards <= 0 || h.Generation == 0 {
		return Hello{}, fmt.Errorf("repl: malformed handshake (shards=%d generation=%d)", h.Shards, h.Generation)
	}
	return h, nil
}

// Serve starts the follower's read-only Interface Server on addr and
// returns its base URL.
func (f *Follower) Serve(addr string) (string, error) {
	return f.iface.Start(addr)
}

// Iface returns the follower's Interface Server — a view over the local
// store that exists from OpenFollower on (so its valves can be set) and
// listens once Serve is called.
func (f *Follower) Iface() *ifsvr.Server { return f.iface }

// Store returns the follower's local store.
func (f *Follower) Store() *ifsvr.Store { return f.store }

// Generation returns the currently adopted leader generation.
func (f *Follower) Generation() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gen
}

// Leader returns the leader base URL.
func (f *Follower) Leader() string { return f.leader }

// Close stops tailing, persists the final cursor, and closes the local
// store (and the Serve HTTP server, if started).
func (f *Follower) Close() {
	if f.cancel != nil {
		f.cancel()
	}
	f.wg.Wait()
	f.saveCursor()
	_ = f.iface.Close()
	f.store.Close()
}

// Crash is Close the hard way — no final cursor write, no store
// snapshot — for restart-torture tests.
func (f *Follower) Crash() error {
	if f.cancel != nil {
		f.cancel()
	}
	f.wg.Wait()
	_ = f.iface.Close()
	return f.store.Crash()
}

// run is the supervisor: it spawns one tailer per shard of the current
// topology and, whenever a tailer reports a topology change, tears the
// incarnation down, re-handshakes, and rebuilds — looping until Close.
func (f *Follower) run(ctx context.Context) {
	defer f.wg.Done()
	for ctx.Err() == nil {
		ictx, icancel := context.WithCancel(ctx)
		var tails sync.WaitGroup
		f.mu.Lock()
		shards := f.shards
		f.mu.Unlock()
		for i := 0; i < shards; i++ {
			tails.Add(1)
			go func(shard int) {
				defer tails.Done()
				f.tailShard(ictx, shard)
			}(i)
		}
		select {
		case <-ctx.Done():
		case <-f.resetCh:
		}
		icancel()
		tails.Wait()
		// Drain a duplicate signal raised by a second tailer before the
		// teardown — it describes the same topology change.
		select {
		case <-f.resetCh:
		default:
		}
		if ctx.Err() != nil {
			return
		}
		f.rehandshake(ctx)
	}
}

// signalReset notifies the supervisor of a topology change (idempotent —
// a second signal for the same change coalesces).
func (f *Follower) signalReset() {
	select {
	case f.resetCh <- struct{}{}:
	default:
	}
}

// rehandshake re-fetches the leader's Hello (retrying with capped
// exponential backoff while it is unreachable) and adopts whatever
// topology it names.
func (f *Follower) rehandshake(ctx context.Context) {
	bo := f.newBackoff()
	for ctx.Err() == nil {
		hello, err := handshake(ctx, f.hc, f.leader)
		if err == nil {
			f.adopt(hello)
			return
		}
		select {
		case <-ctx.Done():
		case <-time.After(bo.Next()):
		}
	}
}

// newBackoff builds the retry pacer used by the tail and re-handshake
// loops: base RetryDelay, capped at 50× the base (bounded by the global
// default cap) so tests with tiny retry delays stay fast while production
// followers settle near seconds, not milliseconds.
func (f *Follower) newBackoff() *backoff.Backoff {
	cap := 50 * f.retry
	if cap > backoff.DefaultCap {
		cap = backoff.DefaultCap
	}
	return &backoff.Backoff{Base: f.retry, Cap: cap}
}

// adopt reconciles a re-handshake's Hello: an unchanged topology was a
// false alarm (keep the cursors), a changed one is a new leader
// incarnation — wipe local state, adopt the new generation and shard
// count, and mark every shard for snapshot bootstrap.
func (f *Follower) adopt(h Hello) {
	f.mu.Lock()
	if h.Generation == f.gen && h.Shards == f.shards {
		for i, l := range h.LSNs {
			if i < len(f.leaderLSN) && l > f.leaderLSN[i] {
				f.leaderLSN[i] = l
			}
		}
		f.mu.Unlock()
		return
	}
	f.resetLocked(h)
	f.mu.Unlock()
	f.saveCursor()
}

// resetLocked wipes the follower for a new leader incarnation h: local
// store state (documents, journal, epochs), per-shard cursors (to the
// forced-bootstrap sentinel), and the adopted generation. Caller holds
// f.mu on the adopt path; OpenFollower calls it before the tailers
// exist.
func (f *Follower) resetLocked(h Hello) {
	f.gen = h.Generation
	f.shards = h.Shards
	f.applied = make([]uint64, h.Shards)
	for i := range f.applied {
		f.applied[i] = bootstrapCursor
	}
	f.leaderLSN = append([]uint64(nil), h.LSNs...)
	f.counters.resets++
	f.dirty = 0
	f.store.ResetReplicated(h.Generation)
}

// tailShard is one shard's tail loop: stream records from the last
// applied lsn, apply, and on a transient break — connection loss, torn
// frame, CRC mismatch — reconnect and re-fetch from the last applied
// lsn (the apply path skips versions it already has, so overlap is
// harmless). A topology change ends the loop and wakes the supervisor
// instead: the shard may not exist on the new leader, and retrying the
// old stream would spin hot against 400s forever.
func (f *Follower) tailShard(ctx context.Context, shard int) {
	bo := f.newBackoff()
	first := true
	for ctx.Err() == nil {
		if !first {
			f.mu.Lock()
			f.counters.reconnects++
			f.mu.Unlock()
			select {
			case <-ctx.Done():
				return
			case <-time.After(bo.Next()):
			}
		}
		first = false
		verdict, progressed := f.tailOnce(ctx, shard)
		if progressed {
			// The stream carried at least one good record: the next break
			// is a fresh failure, not a continuation of this streak.
			bo.Reset()
		}
		if verdict == tailReset {
			f.signalReset()
			return
		}
	}
}

// tailOnce holds one tail stream until it breaks, reports a topology
// change, or ctx ends. progressed reports whether at least one record was
// applied cleanly — the signal that resets the caller's reconnect
// backoff (a connection that dies before carrying anything does not).
func (f *Follower) tailOnce(ctx context.Context, shard int) (verdict tailVerdict, progressed bool) {
	after := f.appliedLSN(shard)
	url := fmt.Sprintf("%s%s?shard=%d&after=%d", f.leader, TailPath, shard, after)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return tailRetry, false
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return tailRetry, false
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode == http.StatusBadRequest {
		// Shard out of range: the leader restarted with fewer shards.
		return tailReset, false
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != TailContentType {
		return tailRetry, false
	}
	gen, shards := f.topology()
	if g, perr := strconv.ParseUint(resp.Header.Get(GenerationHeader), 10, 64); perr == nil && g != 0 && g != gen {
		return tailReset, false
	}
	if n, perr := strconv.Atoi(resp.Header.Get(ShardsHeader)); perr == nil && n > 0 && n != shards {
		return tailReset, false
	}
	fr := newFrameReader(resp.Body)
	for {
		kind, payload, err := fr.next()
		if err != nil {
			if err == errCorruptFrame {
				f.mu.Lock()
				f.counters.frameErrors++
				f.mu.Unlock()
			}
			return tailRetry, progressed
		}
		v, err := f.applyFrame(shard, kind, payload)
		if err != nil {
			f.mu.Lock()
			f.counters.frameErrors++
			f.mu.Unlock()
			return tailRetry, progressed
		}
		if v == tailReset {
			return tailReset, progressed
		}
		progressed = true
	}
}

// applyFrame applies one decoded record and advances the shard cursor.
func (f *Follower) applyFrame(shard int, kind byte, payload []byte) (tailVerdict, error) {
	switch kind {
	case FrameCommit:
		lsn, evs, err := ifsvr.DecodeCommitFrame(payload)
		if err != nil {
			return tailRetry, err
		}
		f.store.ApplyReplicated(evs)
		f.advance(shard, lsn, func(c *Follower) { c.counters.batches++; c.counters.records++ })
	case FrameRemove:
		lsn, path, version, err := ifsvr.DecodeRemoveFrame(payload)
		if err != nil {
			return tailRetry, err
		}
		f.store.ApplyReplicatedRemove(path, version)
		f.advance(shard, lsn, func(c *Follower) { c.counters.removes++; c.counters.records++ })
	case FrameBootstrap:
		lsn, evs, err := ifsvr.DecodeCommitFrame(payload)
		if err != nil {
			return tailRetry, err
		}
		var meta bootstrapMeta
		if err := json.Unmarshal(payload, &meta); err != nil {
			return tailRetry, err
		}
		if gen, _ := f.topology(); meta.Generation != 0 && meta.Generation != gen {
			// The state transfer belongs to a leader incarnation we have
			// not adopted: applying it would interleave two incarnations'
			// versions. Re-handshake first.
			return tailReset, nil
		}
		f.store.ApplyReplicated(evs)
		for path, v := range meta.Retired {
			f.store.ApplyReplicatedRemove(path, v)
		}
		f.setBootstrapCursor(shard, lsn)
	case FrameHeartbeat:
		var hb heartbeatWire
		if err := json.Unmarshal(payload, &hb); err != nil {
			return tailRetry, err
		}
		f.mu.Lock()
		if hb.Lsn > f.leaderLSN[shard] {
			f.leaderLSN[shard] = hb.Lsn
		}
		f.counters.heartbeats++
		dirty := f.dirty > 0
		f.mu.Unlock()
		if dirty {
			// Idle moment: flush the debounced cursor so a quiet period
			// after an edit storm leaves the sidecar current.
			f.saveCursor()
		}
	default:
		return tailRetry, fmt.Errorf("repl: unknown frame kind %q", kind)
	}
	return tailRetry, nil
}

// advance records a shard's applied lsn (and the implied leader head)
// and debounces the cursor-sidecar write. A shard awaiting bootstrap
// keeps its sentinel — a stray data record cannot masquerade as a full
// state transfer.
func (f *Follower) advance(shard int, lsn uint64, count func(*Follower)) {
	f.mu.Lock()
	if f.applied[shard] != bootstrapCursor && lsn > f.applied[shard] {
		f.applied[shard] = lsn
	}
	if lsn > f.leaderLSN[shard] {
		f.leaderLSN[shard] = lsn
	}
	count(f)
	f.dirty++
	save := f.dirty >= cursorSaveEvery
	f.mu.Unlock()
	if save {
		f.saveCursor()
	}
}

// setBootstrapCursor installs a snapshot bootstrap's shard position —
// unconditionally, even downward: the bootstrap's state defines the
// cursor, and after a leader restart the new head is below the old one.
// Bootstraps are rare and load-bearing, so the cursor persists
// immediately rather than debounced.
func (f *Follower) setBootstrapCursor(shard int, lsn uint64) {
	f.mu.Lock()
	f.applied[shard] = lsn
	if lsn > f.leaderLSN[shard] {
		f.leaderLSN[shard] = lsn
	}
	f.counters.bootstraps++
	f.mu.Unlock()
	f.saveCursor()
}

func (f *Follower) appliedLSN(shard int) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.applied[shard]
}

// topology returns the currently adopted generation and shard count.
func (f *Follower) topology() (uint64, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gen, f.shards
}

// loadCursor reads the cursor sidecar ("" dir, a missing file, or a torn
// write all read as no cursor — the follower just bootstraps).
func (f *Follower) loadCursor() (cursorState, bool) {
	if f.dir == "" {
		return cursorState{}, false
	}
	data, err := os.ReadFile(filepath.Join(f.dir, cursorFile))
	if err != nil {
		return cursorState{}, false
	}
	var cur cursorState
	if json.Unmarshal(data, &cur) != nil || len(cur.Applied) != cur.Shards {
		return cursorState{}, false
	}
	return cur, true
}

// saveCursor writes the cursor sidecar (best-effort, unsynced; see
// cursorFile) and resets the debounce counter.
func (f *Follower) saveCursor() {
	if f.dir == "" {
		f.mu.Lock()
		f.dirty = 0
		f.mu.Unlock()
		return
	}
	f.mu.Lock()
	cur := cursorState{Generation: f.gen, Shards: f.shards, Applied: append([]uint64(nil), f.applied...)}
	f.dirty = 0
	f.mu.Unlock()
	data, err := json.Marshal(cur)
	if err != nil {
		return
	}
	f.curMu.Lock()
	defer f.curMu.Unlock()
	tmp := filepath.Join(f.dir, cursorFile+".tmp")
	if os.WriteFile(tmp, data, 0o644) != nil {
		return
	}
	_ = os.Rename(tmp, filepath.Join(f.dir, cursorFile))
}

// Lag is the follower's total backlog: sum over shards of the leader
// head minus the applied lsn, as last observed. A shard awaiting
// bootstrap counts its whole leader head as backlog.
func (f *Follower) Lag() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lagLocked()
}

func (f *Follower) lagLocked() uint64 {
	var lag uint64
	for i := range f.applied {
		switch {
		case f.applied[i] == bootstrapCursor:
			lag += f.leaderLSN[i]
		case f.leaderLSN[i] > f.applied[i]:
			lag += f.leaderLSN[i] - f.applied[i]
		}
	}
	return lag
}

// replicationStats is the follower's StoreStats.Replication block.
func (f *Follower) replicationStats() *ifsvr.ReplicationStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	applied := make([]uint64, len(f.applied))
	for i, l := range f.applied {
		if l != bootstrapCursor {
			applied[i] = l // sentinel reads as 0: no usable position yet
		}
	}
	return &ifsvr.ReplicationStats{
		Role:        "follower",
		LeaderURL:   f.leader,
		Generation:  f.gen,
		Shards:      f.shards,
		LSN:         applied,
		LeaderLSN:   append([]uint64(nil), f.leaderLSN...),
		Lag:         f.lagLocked(),
		Records:     f.counters.records,
		Batches:     f.counters.batches,
		Removes:     f.counters.removes,
		Bootstraps:  f.counters.bootstraps,
		Heartbeats:  f.counters.heartbeats,
		Reconnects:  f.counters.reconnects,
		Resets:      f.counters.resets,
		FrameErrors: f.counters.frameErrors,
	}
}
