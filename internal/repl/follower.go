// Package repl replicates the Interface Server's publication store into
// read-only follower replicas.
//
// The design adds no new invariants — and no new transport. Every
// Interface Server serves the all-paths form of its watch stream
// (ifsvr.AllPath): every path's commits in epoch order, each event's
// "data:" line the bytes the leader committed, and the retired floors. A
// follower is one more watcher of that stream: it applies each event
// through the store's one write path into its own store, installing the
// leader's versions, epochs, bytes and restart generation verbatim. A
// watcher on a follower therefore sees the exact bytes, at the exact
// epochs, it would see on the leader, and failing over between replicas is
// the watch protocol's ordinary reconnect-with-replay — not a restart.
//
// See docs/replication.md.
package repl

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"livedev/internal/backoff"
	"livedev/internal/ifsvr"
)

// DefaultTailShards was the replication stream count when the tail was
// split by path hash.
//
// Deprecated: replication is one stream; nothing in this package reads it.
// It stays, with its value, because the benchmark's input generator
// (bench/inputs.go) names it with ifsvr.ShardOf to pick its class names,
// and changing it would change the benchmark's documents.
const DefaultTailShards = 4

// DefaultRetryDelay is the base reconnect pacing after a broken stream or
// a refused event, and while the leader is unreachable. Consecutive
// failures back off exponentially from this base — capped and jittered,
// reset by the next applied event — so a follower fleet facing a dead
// leader does not dial in lockstep forever.
const DefaultRetryDelay = 200 * time.Millisecond

// errReset ends a stream whose generation header named a leader
// incarnation other than the adopted one: the follower has reset and
// reconnects at once from epoch 0.
var errReset = errors.New("repl: leader generation changed")

// FollowerConfig configures OpenFollower.
type FollowerConfig struct {
	// Leader is the leader Interface Server's base URL.
	Leader string
	// Store configures the follower's own store — in-memory by default,
	// durable when Dir is set (a restarted follower then resumes from the
	// epoch its store recovered instead of re-bootstrapping).
	Store ifsvr.StoreConfig
	// HTTPClient overrides the streaming client (nil means a private one).
	HTTPClient *http.Client
	// RetryDelay overrides reconnect pacing (0 means DefaultRetryDelay).
	RetryDelay time.Duration
}

// Follower watches a leader's all-paths stream and applies its events, in
// the leader's commit order, through the store's commit path into its own
// (optionally durable) store. The store serves doc GETs and SSE watch
// streams read-only under the leader's generation and epochs; Serve starts
// an Interface Server view that additionally answers writes with 421
// Misdirected Request naming the leader.
//
// Each (re)connect compares the stream's generation header with the
// adopted generation. A mismatch is a new leader incarnation: the follower
// wipes its local state (the old incarnation's versions would otherwise
// shadow the new leader's lower-numbered commits), adopts the new
// generation, and reconnects from epoch 0 — which the leader answers with
// a snapshot reset — so the replica converges on the new incarnation
// instead of silently serving the dead one.
type Follower struct {
	leader string
	hc     *http.Client
	store  *ifsvr.Store
	iface  *ifsvr.Server
	retry  time.Duration

	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu          sync.Mutex
	gen         uint64
	applied     uint64 // last applied epoch
	leaderEpoch uint64 // the leader's epoch, from stream headers and events
	snapshot    bool   // the last applied version was part of a snapshot reset
	counters    struct {
		records, batches, removes, bootstraps uint64
		reconnects, resets, frameErrors       uint64
	}
}

// OpenFollower opens (or recovers) the local store, connects to the
// leader's all-paths stream past the store's epoch, and starts applying;
// an unreachable leader fails it. The returned follower's store is
// read-only and already adopting the leader's generation.
//
// A recovered store resumes only under the generation it recovered: its
// WAL and snapshot are a prefix of that leader incarnation's commits, so
// its epoch is exactly what it kept. Any other recovered state belongs to
// a dead incarnation and is wiped, and the follower rebuilds from epoch 0.
func OpenFollower(cfg FollowerConfig) (*Follower, error) {
	f := &Follower{leader: cfg.Leader, hc: cfg.HTTPClient, retry: cfg.RetryDelay}
	if f.hc == nil {
		f.hc = &http.Client{}
	}
	if f.retry <= 0 {
		f.retry = DefaultRetryDelay
	}
	st, err := ifsvr.OpenStore(cfg.Store)
	if err != nil {
		return nil, err
	}
	// Read-only before the leader is reached: a recovered store goes back
	// to the generation it recovered, so a start that fails here leaves
	// the directory resumable.
	st.SetReadOnly(true)
	ctx, cancel := context.WithCancel(context.Background())
	after := st.Epoch()
	s, err := f.open(ctx, after)
	if err != nil {
		st.Close()
		cancel()
		return nil, err
	}
	f.store, f.gen, f.leaderEpoch, f.cancel = st, s.Generation, s.Epoch, cancel
	f.iface = ifsvr.NewView(st)
	f.iface.LeaderURL = cfg.Leader
	st.SetReplicationStats(f.replicationStats)
	// Serve the LEADER's restart generation, not our own incarnation
	// count: a watcher failing over between replicas must not misread
	// the replica switch as a state-loss restart.
	switch {
	case st.AdoptGeneration(s.Generation):
		f.applied = after
	case after > 0:
		// The recovered state belongs to another leader incarnation: its
		// versions would shadow the new leader's. Wipe, adopting the
		// leader's generation, and rebuild from epoch 0 on a new stream.
		f.reset(s.Generation)
		f.leaderEpoch = s.Epoch
		_ = s.Close()
		s = nil
	}
	f.wg.Add(1)
	go f.run(ctx, s)
	return f, nil
}

// open connects the leader's all-paths stream past epoch after.
func (f *Follower) open(ctx context.Context, after uint64) (*ifsvr.Stream, error) {
	s, err := ifsvr.OpenStream(ctx, f.hc, f.leader+ifsvr.AllPath, after)
	if err != nil {
		return nil, fmt.Errorf("repl: following %s: %w", f.leader, err)
	}
	if s.Generation == 0 {
		_ = s.Close()
		return nil, fmt.Errorf("repl: following %s: the stream names no store generation", f.leader)
	}
	return s, nil
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

// Close stops following and closes the local store (and the Serve HTTP
// server, if started).
func (f *Follower) Close() {
	f.cancel()
	f.wg.Wait()
	_ = f.iface.Close()
	f.store.Close()
}

// Crash is Close the hard way — no closing store snapshot — for
// restart-torture tests.
func (f *Follower) Crash() error {
	f.cancel()
	f.wg.Wait()
	_ = f.iface.Close()
	return f.store.Crash()
}

// run is the follow loop: apply one stream until it breaks, then reconnect
// from the last applied epoch (the apply path skips versions it already
// has, so overlap is harmless) — at once after a reset, otherwise paced by
// capped exponential backoff — until Close. s is the stream OpenFollower
// opened, or nil.
func (f *Follower) run(ctx context.Context, s *ifsvr.Stream) {
	defer f.wg.Done()
	bo := f.newBackoff()
	wait := false
	for ctx.Err() == nil {
		if s == nil {
			if wait {
				f.mu.Lock()
				f.counters.reconnects++
				f.mu.Unlock()
				select {
				case <-ctx.Done():
					return
				case <-time.After(bo.Next()):
				}
			}
			f.mu.Lock()
			after := f.applied
			f.mu.Unlock()
			var err error
			if s, err = f.open(ctx, after); err != nil {
				wait = true
				continue
			}
		}
		progressed, err := f.follow(ctx, s)
		s = nil
		if progressed {
			// The stream carried at least one good event: the next break
			// is a fresh failure, not a continuation of this streak.
			bo.Reset()
		}
		wait = !errors.Is(err, errReset)
	}
}

// newBackoff builds the reconnect pacer: base RetryDelay, capped at 50×
// the base (bounded by the global default cap) so tests with tiny retry
// delays stay fast while production followers settle near seconds, not
// milliseconds.
func (f *Follower) newBackoff() *backoff.Backoff {
	cap := 50 * f.retry
	if cap > backoff.DefaultCap {
		cap = backoff.DefaultCap
	}
	return &backoff.Backoff{Base: f.retry, Cap: cap}
}

// follow applies one stream's events until it ends, reporting whether any
// applied. A stream of another leader incarnation resets the follower
// first (errReset); a "data:" line that does not decode is counted in
// FrameErrors.
func (f *Follower) follow(ctx context.Context, s *ifsvr.Stream) (progressed bool, err error) {
	f.mu.Lock()
	gen := f.gen
	f.mu.Unlock()
	if s.Generation != gen {
		_ = s.Close()
		f.reset(s.Generation)
		return false, errReset
	}
	f.mu.Lock()
	f.leaderEpoch = max(f.leaderEpoch, s.Epoch)
	f.mu.Unlock()
	err = s.Read(ctx, func(ev ifsvr.StreamEvent) {
		f.apply(ev)
		progressed = true
	})
	if errors.Is(err, ifsvr.ErrStreamCorrupt) {
		f.mu.Lock()
		f.counters.frameErrors++
		f.mu.Unlock()
	}
	return progressed, err
}

// apply installs one event and advances the cursor. A version's bytes are
// the leader's "data:" line; its Generation is dropped, since the store
// keeps none per document.
func (f *Follower) apply(ev ifsvr.StreamEvent) {
	if ev.Removed {
		f.store.ApplyReplicatedRemove(ev.Path, ev.Doc.Version)
	} else {
		doc := ev.Doc
		doc.Generation = 0
		f.store.ApplyReplicated([]ifsvr.StoreEvent{{Path: ev.Path, Doc: doc, Payload: ev.Payload}})
	}
	f.mu.Lock()
	if ev.Removed {
		f.counters.removes++
	} else {
		f.counters.batches++
		if ev.Snapshot && !f.snapshot {
			f.counters.bootstraps++
		}
		f.snapshot = ev.Snapshot
		// A snapshot reset's documents come in epoch order from wherever
		// the leader's state starts, so the cursor may step down to them.
		f.applied = ev.Doc.Epoch
		f.leaderEpoch = max(f.leaderEpoch, ev.Doc.Epoch)
	}
	f.counters.records++
	f.mu.Unlock()
}

// reset wipes the follower for a new leader incarnation gen: local store
// state (documents, journal, epochs), the cursor (to epoch 0), and the
// adopted generation. The store snapshots the wiped state under gen at
// once, so a follower that crashes mid-rebuild resumes the rebuild.
func (f *Follower) reset(gen uint64) {
	f.mu.Lock()
	f.gen = gen
	f.applied, f.leaderEpoch = 0, 0
	f.snapshot = false
	f.counters.resets++
	f.mu.Unlock()
	f.store.ResetReplicated(gen)
}

// Lag is the follower's backlog: the leader's epoch minus the applied
// epoch, as last observed.
func (f *Follower) Lag() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lagLocked()
}

// lagLocked is Lag. Caller holds f.mu.
func (f *Follower) lagLocked() uint64 {
	if f.leaderEpoch < f.applied {
		return 0
	}
	return f.leaderEpoch - f.applied
}

// replicationStats is the follower's StoreStats.Replication block.
func (f *Follower) replicationStats() *ifsvr.ReplicationStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return &ifsvr.ReplicationStats{
		Role:        "follower",
		LeaderURL:   f.leader,
		Generation:  f.gen,
		LSN:         f.applied,
		LeaderLSN:   f.leaderEpoch,
		Lag:         f.lagLocked(),
		Records:     f.counters.records,
		Batches:     f.counters.batches,
		Removes:     f.counters.removes,
		Bootstraps:  f.counters.bootstraps,
		Reconnects:  f.counters.reconnects,
		Resets:      f.counters.resets,
		FrameErrors: f.counters.frameErrors,
	}
}
