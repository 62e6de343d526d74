package ifsvr

// The watcher wake plane.
//
// A commit must not do O(watchers) work, nor wake streams whose path it
// did not touch: each held stream registers a capacity-1 wake channel
// under the path it watches (an all-paths stream under AllPath), and a
// commit sends one non-blocking wake per watcher of each path its batch
// dirtied, plus one per all-paths stream. Delivery itself happens on the
// watcher's own goroutine (its delivery pump), which pulls pending events
// from the epoch journal at its own pace; see pump.go. The same registry
// drives the heartbeat tick, and close and reset wake all of it.

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// wakeSet is the store's one registry of held streams: path → the wake
// channels of the streams watching it. Commits take its lock under
// deliverMu; it is never held together with mu, nor across a callback.
type wakeSet struct {
	mu    sync.Mutex
	paths map[string]map[chan<- struct{}]struct{}
	// ticking is set while the heartbeat tick runs.
	ticking bool
}

// watchPath registers a wake channel for path — AllPath for an all-paths
// stream — and returns its cancel. The channel should have capacity 1;
// wakeups are non-blocking sends, so a full channel simply means a wake is
// already pending — the watcher will drain everything it finds when it
// gets around to looking.
func (s *Store) watchPath(path string, wake chan<- struct{}) (cancel func()) {
	w := &s.watchers
	w.mu.Lock()
	if w.paths == nil {
		w.paths = make(map[string]map[chan<- struct{}]struct{})
	}
	set := w.paths[path]
	if set == nil {
		set = make(map[chan<- struct{}]struct{})
		w.paths[path] = set
	}
	set[wake] = struct{}{}
	w.mu.Unlock()
	return func() {
		w.mu.Lock()
		if set := w.paths[path]; set != nil {
			delete(set, wake)
			if len(set) == 0 {
				delete(w.paths, path)
			}
		}
		w.mu.Unlock()
	}
}

// wakeLocked signals every watcher in set and returns how many there were.
func wakeLocked(set map[chan<- struct{}]struct{}) (n uint64) {
	for ch := range set {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	return uint64(len(set))
}

// wakeWatchers signals every watcher of every path in a committed batch,
// and every all-paths stream. A commit batch carries each path at most
// once, so no dedup is needed; sends are non-blocking against capacity-1
// channels, so a slow watcher costs the committer nothing. Fanout.Wakes
// counts the per-path wakes only.
func (s *Store) wakeWatchers(evs []StoreEvent) {
	w := &s.watchers
	var woken uint64
	w.mu.Lock()
	for _, ev := range evs {
		woken += wakeLocked(w.paths[ev.Path])
	}
	wakeLocked(w.paths[AllPath])
	w.mu.Unlock()
	if woken > 0 {
		s.fanout.wakes.Add(woken)
	}
}

// wakeAllWatchers nudges every held stream regardless of path — used for
// store-wide state changes (close, crash, replicated reset) that every
// held connection must notice.
func (s *Store) wakeAllWatchers() {
	w := &s.watchers
	w.mu.Lock()
	for _, set := range w.paths {
		wakeLocked(set)
	}
	w.mu.Unlock()
}

// heartbeat starts the heartbeat tick unless it runs. Every interval
// (clamped to at least 1ms) the tick nudges every held stream, whose pump
// decides for itself whether a liveness frame is due, and it exits at the
// first tick that finds none, so an idle store runs no ticker. Call it
// after registering a stream.
func (s *Store) heartbeat(interval time.Duration) {
	w := &s.watchers
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ticking {
		return
	}
	w.ticking = true
	go func() {
		t := time.NewTicker(max(interval, time.Millisecond))
		defer t.Stop()
		for ticking := true; ticking; {
			<-t.C
			w.mu.Lock()
			for _, set := range w.paths {
				wakeLocked(set)
			}
			w.ticking = len(w.paths) > 0
			ticking = w.ticking
			w.mu.Unlock()
		}
	}()
}

// watcherCounts reports the registered population: per-path watchers, and
// all-paths streams (tails).
func (s *Store) watcherCounts() (watchers, tails int) {
	w := &s.watchers
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, set := range w.paths {
		watchers += len(set)
	}
	tails = len(w.paths[AllPath])
	return watchers - tails, tails
}

// batchBuckets sizes the power-of-two flush-batch histogram: bucket b
// counts batches of (2^(b-1), 2^b] events, so the last bucket absorbs
// everything past 2^(batchBuckets-1).
const batchBuckets = 12

// fanoutCounters is the delivery plane's hot-path instrumentation: plain
// atomics, no locks, safe to bump from any pump goroutine.
type fanoutCounters struct {
	wakes    atomic.Uint64
	streams  atomic.Uint64
	batches  atomic.Uint64
	events   atomic.Uint64
	pump     PumpCounters // heartbeats, evictions
	resets   atomic.Uint64
	batchMax atomic.Uint64
	hist     [batchBuckets]atomic.Uint64
}

// noteBatch records one pump flush of n events.
func (c *fanoutCounters) noteBatch(n int) {
	if n <= 0 {
		return
	}
	c.batches.Add(1)
	c.events.Add(uint64(n))
	b := bits.Len(uint(n - 1)) // 1→0, 2→1, 3..4→2, 5..8→3, …
	if b >= batchBuckets {
		b = batchBuckets - 1
	}
	c.hist[b].Add(1)
	for {
		cur := c.batchMax.Load()
		if uint64(n) <= cur || c.batchMax.CompareAndSwap(cur, uint64(n)) {
			return
		}
	}
}

// batchPercentile reads the q-quantile of the flush-batch distribution
// off the histogram, reported as the matching bucket's upper bound (so
// it over- rather than under-states queue depth).
func (c *fanoutCounters) batchPercentile(q float64) int {
	var counts [batchBuckets]uint64
	var total uint64
	for i := range counts {
		counts[i] = c.hist[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, n := range counts {
		cum += n
		if cum >= target {
			return 1 << i
		}
	}
	return 1 << (batchBuckets - 1)
}

// FanoutStats is the delivery-plane block of StoreStats: how many
// watchers are held open, how hard commits are waking them, and how the
// backpressure valves (evictions, snapshot resets) are firing.
type FanoutStats struct {
	// Watchers is the number of currently registered watch subscriptions
	// (held per-path streams).
	Watchers int
	// Wakes counts wake signals sent to watcher pumps at commit time;
	// Streams counts streaming-watch connections served (cumulative).
	Wakes   uint64
	Streams uint64
	// Batches counts pump flushes; Events the events they carried. One
	// flush is one syscall regardless of how many events it batched.
	Batches uint64
	Events  uint64
	// BatchP50/BatchP99 approximate the events-per-flush distribution
	// (the queue depth a pump found when it woke) as power-of-two bucket
	// upper bounds; BatchMax is exact.
	BatchP50 int
	BatchP99 int
	BatchMax int
	// Heartbeats counts idle-stream liveness comments written at the
	// heartbeat tick's nudge.
	Heartbeats uint64
	// Evictions counts streams dropped for backpressure — a write that
	// missed its deadline, or pending events past MaxWatcherLag.
	Evictions uint64
	// Resets counts mid-stream snapshot resets: the journal no longer
	// held every version past a pump's cursor and the stream was restarted
	// from the current document instead of buffering the gap.
	Resets uint64
}

// fanoutStats assembles the exported block. Counter reads are atomic and
// the registry walk takes the registry lock briefly; no store lock is held.
func (s *Store) fanoutStats() FanoutStats {
	watchers, _ := s.watcherCounts()
	return FanoutStats{
		Watchers:   watchers,
		Wakes:      s.fanout.wakes.Load(),
		Streams:    s.fanout.streams.Load(),
		Batches:    s.fanout.batches.Load(),
		Events:     s.fanout.events.Load(),
		BatchP50:   s.fanout.batchPercentile(0.50),
		BatchP99:   s.fanout.batchPercentile(0.99),
		BatchMax:   int(s.fanout.batchMax.Load()),
		Heartbeats: s.fanout.pump.Heartbeats.Load(),
		Evictions:  s.fanout.pump.Evictions.Load(),
		Resets:     s.fanout.resets.Load(),
	}
}
