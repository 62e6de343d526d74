package repl

import (
	"context"
	"encoding/json"
	"errors"
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
// leader generation and the applied lsn a restart resumes from.
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

// bootstrapCursor is the sentinel applied-lsn meaning "no usable
// position — force a snapshot bootstrap". It is installed when a
// re-handshake reveals a new leader incarnation (the old lsns mean
// nothing there) and persists in the cursor sidecar, so a follower that
// crashes mid-rebuild still bootstraps on restart. Any cursor past the
// leader's head triggers a bootstrap, so the sentinel needs no
// protocol support.
const bootstrapCursor = ^uint64(0)

// errReset ends a tail stream that revealed a new leader incarnation —
// the response header or a bootstrap frame named a different generation:
// stop tailing and re-handshake.
var errReset = errors.New("repl: leader generation changed")

// FollowerConfig configures OpenFollower.
type FollowerConfig struct {
	// Leader is the leader Interface Server's base URL (the TailPath
	// endpoint must be mounted there).
	Leader string
	// Store configures the follower's own store — in-memory by default,
	// durable when Dir is set (the replication cursor persists next to
	// the store's files, so a restarted follower resumes tailing from its
	// durable position instead of re-bootstrapping).
	Store ifsvr.StoreConfig
	// HTTPClient overrides the tailing client (nil means a private one).
	HTTPClient *http.Client
	// RetryDelay overrides reconnect pacing (0 means DefaultRetryDelay).
	RetryDelay time.Duration
}

// Follower tails a leader's log and applies its records, in the leader's
// commit order, through the store's commit path into its own (optionally
// durable) store. The store serves doc GETs and SSE watch streams
// read-only under the leader's generation and epochs; Serve starts an
// Interface Server view that additionally answers writes with 421
// Misdirected Request naming the leader.
//
// A supervisor loop watches for the leader changing underneath the
// tailer: a generation mismatch on a tail response's header, or a
// bootstrap frame carrying a foreign generation, signals a new leader
// incarnation. The supervisor then re-handshakes, wipes the local state
// (the old incarnation's versions would otherwise shadow the new
// leader's lower-numbered commits), adopts the new generation, and
// resumes tailing with the forced-bootstrap cursor — so the replica
// converges on the new incarnation instead of silently serving the dead
// one.
type Follower struct {
	leader string
	hc     *http.Client
	store  *ifsvr.Store
	iface  *ifsvr.Server
	dir    string
	retry  time.Duration

	cancel context.CancelFunc
	wg     sync.WaitGroup

	curMu     sync.Mutex // serializes cursor-sidecar writes
	mu        sync.Mutex
	gen       uint64
	applied   uint64 // last applied lsn (or bootstrapCursor)
	leaderLSN uint64 // leader head, from records and heartbeats
	dirty     int    // applied records since the last cursor save
	counters  struct {
		records, batches, removes, bootstraps, heartbeats uint64
		reconnects, resets, frameErrors                   uint64
	}
}

// cursorState is the cursorFile layout.
type cursorState struct {
	Generation uint64 `json:"generation"`
	Applied    uint64 `json:"applied"`
}

// OpenFollower handshakes with the leader, opens (or recovers) the local
// store, and starts tailing. The returned follower's store is read-only
// and already adopting the leader's generation.
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
		gen:       hello.Generation,
		leaderLSN: hello.LSN,
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
	case curOK && cur.Generation == hello.Generation:
		f.applied = cur.Applied
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
	if h.Generation == 0 {
		return Hello{}, errors.New("repl: malformed handshake (generation 0)")
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

// run is the supervisor: it tails the current leader incarnation and,
// whenever the tail reports a new one, re-handshakes and resumes —
// looping until Close.
func (f *Follower) run(ctx context.Context) {
	defer f.wg.Done()
	for ctx.Err() == nil {
		f.tail(ctx)
		if ctx.Err() != nil {
			return
		}
		f.rehandshake(ctx)
	}
}

// rehandshake re-fetches the leader's Hello (retrying with capped
// exponential backoff while it is unreachable) and adopts whatever
// generation it names.
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

// adopt reconciles a re-handshake's Hello: an unchanged generation was a
// false alarm (keep the cursor), a changed one is a new leader
// incarnation — wipe local state, adopt the new generation, and mark the
// cursor for snapshot bootstrap.
func (f *Follower) adopt(h Hello) {
	f.mu.Lock()
	if h.Generation == f.gen {
		f.leaderLSN = max(f.leaderLSN, h.LSN)
		f.mu.Unlock()
		return
	}
	f.resetLocked(h)
	f.mu.Unlock()
	f.saveCursor()
}

// resetLocked wipes the follower for a new leader incarnation h: local
// store state (documents, journal, epochs), the cursor (to the
// forced-bootstrap sentinel), and the adopted generation. Caller holds
// f.mu on the adopt path; OpenFollower calls it before the tailer exists.
func (f *Follower) resetLocked(h Hello) {
	f.gen = h.Generation
	f.applied = bootstrapCursor
	f.leaderLSN = h.LSN
	f.counters.resets++
	f.dirty = 0
	f.store.ResetReplicated(h.Generation)
}

// tail is the tail loop: stream records from the last applied lsn,
// apply, and on a transient break — connection loss, torn frame, CRC
// mismatch — reconnect and re-fetch from the last applied lsn (the apply
// path skips versions it already has, so overlap is harmless). It
// returns when ctx ends or a stream reveals a new leader incarnation.
func (f *Follower) tail(ctx context.Context) {
	bo := f.newBackoff()
	for first := true; ctx.Err() == nil; first = false {
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
		progressed, err := f.tailOnce(ctx)
		if progressed {
			// The stream carried at least one good record: the next break
			// is a fresh failure, not a continuation of this streak.
			bo.Reset()
		}
		if err == errReset {
			return
		}
	}
}

// tailOnce holds one tail stream until it breaks, reveals a new leader
// incarnation (errReset), or ctx ends. progressed reports whether at
// least one record was applied cleanly — the signal that resets the
// caller's reconnect backoff (a connection that dies before carrying
// anything does not).
func (f *Follower) tailOnce(ctx context.Context) (progressed bool, err error) {
	f.mu.Lock()
	after, gen := f.applied, f.gen
	f.mu.Unlock()
	url := fmt.Sprintf("%s%s?after=%d", f.leader, TailPath, after)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false, err
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return false, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != TailContentType {
		return false, fmt.Errorf("repl: tail answered HTTP %d", resp.StatusCode)
	}
	if g, perr := strconv.ParseUint(resp.Header.Get(GenerationHeader), 10, 64); perr == nil && g != 0 && g != gen {
		return false, errReset
	}
	fr := newFrameReader(resp.Body)
	for {
		kind, payload, err := fr.next()
		if err == nil {
			err = f.applyFrame(kind, payload)
		} else if err != errCorruptFrame {
			return progressed, err // a broken connection, not a bad frame
		}
		if err != nil {
			if err != errReset {
				f.mu.Lock()
				f.counters.frameErrors++
				f.mu.Unlock()
			}
			return progressed, err
		}
		progressed = true
	}
}

// applyFrame applies one decoded record and advances the cursor.
func (f *Follower) applyFrame(kind byte, payload []byte) error {
	switch kind {
	case FrameCommit:
		lsn, evs, err := ifsvr.DecodeCommitFrame(payload)
		if err != nil {
			return err
		}
		f.store.ApplyReplicated(evs)
		f.advance(lsn, func(c *Follower) { c.counters.batches++; c.counters.records++ })
	case FrameRemove:
		lsn, path, version, err := ifsvr.DecodeRemoveFrame(payload)
		if err != nil {
			return err
		}
		f.store.ApplyReplicatedRemove(path, version)
		f.advance(lsn, func(c *Follower) { c.counters.removes++; c.counters.records++ })
	case FrameBootstrap:
		lsn, evs, err := ifsvr.DecodeCommitFrame(payload)
		if err != nil {
			return err
		}
		var meta bootstrapMeta
		if err := json.Unmarshal(payload, &meta); err != nil {
			return err
		}
		if meta.Generation != 0 && meta.Generation != f.Generation() {
			// The state transfer belongs to a leader incarnation we have
			// not adopted: applying it would interleave two incarnations'
			// versions. Re-handshake first.
			return errReset
		}
		f.store.ApplyReplicated(evs)
		for path, v := range meta.Retired {
			f.store.ApplyReplicatedRemove(path, v)
		}
		f.setBootstrapCursor(lsn)
	case FrameHeartbeat:
		var hb heartbeatWire
		if err := json.Unmarshal(payload, &hb); err != nil {
			return err
		}
		f.mu.Lock()
		f.leaderLSN = max(f.leaderLSN, hb.Lsn)
		f.counters.heartbeats++
		dirty := f.dirty > 0
		f.mu.Unlock()
		if dirty {
			// Idle moment: flush the debounced cursor so a quiet period
			// after an edit storm leaves the sidecar current.
			f.saveCursor()
		}
	default:
		return fmt.Errorf("repl: unknown frame kind %q", kind)
	}
	return nil
}

// advance records the applied lsn (and the implied leader head) and
// debounces the cursor-sidecar write. A follower awaiting bootstrap keeps
// its sentinel — a stray data record cannot masquerade as a full state
// transfer.
func (f *Follower) advance(lsn uint64, count func(*Follower)) {
	f.mu.Lock()
	if f.applied != bootstrapCursor && lsn > f.applied {
		f.applied = lsn
	}
	f.leaderLSN = max(f.leaderLSN, lsn)
	count(f)
	f.dirty++
	save := f.dirty >= cursorSaveEvery
	f.mu.Unlock()
	if save {
		f.saveCursor()
	}
}

// setBootstrapCursor installs a snapshot bootstrap's log position —
// unconditionally, even downward: the bootstrap's state defines the
// cursor, and after a leader restart the new head is below the old one.
// Bootstraps are rare and load-bearing, so the cursor persists
// immediately rather than debounced.
func (f *Follower) setBootstrapCursor(lsn uint64) {
	f.mu.Lock()
	f.applied = lsn
	f.leaderLSN = max(f.leaderLSN, lsn)
	f.counters.bootstraps++
	f.mu.Unlock()
	f.saveCursor()
}

// loadCursor reads the cursor sidecar ("" dir, a missing file, a torn
// write, or a file in an older layout all read as no cursor — the
// follower just bootstraps).
func (f *Follower) loadCursor() (cursorState, bool) {
	if f.dir == "" {
		return cursorState{}, false
	}
	data, err := os.ReadFile(filepath.Join(f.dir, cursorFile))
	if err != nil {
		return cursorState{}, false
	}
	var cur cursorState
	if json.Unmarshal(data, &cur) != nil {
		return cursorState{}, false
	}
	return cur, true
}

// saveCursor writes the cursor sidecar (best-effort, unsynced; see
// cursorFile) and resets the debounce counter.
func (f *Follower) saveCursor() {
	f.mu.Lock()
	cur := cursorState{Generation: f.gen, Applied: f.applied}
	f.dirty = 0
	f.mu.Unlock()
	if f.dir == "" {
		return
	}
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

// Lag is the follower's backlog: the leader head minus the applied lsn,
// as last observed. A follower awaiting bootstrap counts the whole leader
// head as backlog.
func (f *Follower) Lag() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.leaderLSN - f.appliedLocked()
}

// appliedLocked is the applied lsn as stats report it: the bootstrap
// sentinel reads as 0, no usable position yet. Caller holds f.mu.
func (f *Follower) appliedLocked() uint64 {
	if f.applied == bootstrapCursor {
		return 0
	}
	return min(f.applied, f.leaderLSN)
}

// replicationStats is the follower's StoreStats.Replication block.
func (f *Follower) replicationStats() *ifsvr.ReplicationStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	applied := f.appliedLocked()
	return &ifsvr.ReplicationStats{
		Role:        "follower",
		LeaderURL:   f.leader,
		Generation:  f.gen,
		LSN:         applied,
		LeaderLSN:   f.leaderLSN,
		Lag:         f.leaderLSN - applied,
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
