package ifsvr

// The watcher wake plane.
//
// A commit must not do O(watchers) work, nor wake streams whose path it
// did not touch: each held stream registers a capacity-1 wake channel
// under the path it watches, the registry is sharded by path hash, and a
// commit touches only the shards its batch dirtied — one small lock each,
// one non-blocking send per watcher of a dirty path. Delivery itself
// happens on the watcher's own goroutine (its delivery pump), which pulls
// pending events from the epoch journal at its own pace; see pump.go.

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// watchShardCount is the number of locks the watcher registry is split
// across. Watchers of one path always share a shard (shardOf), so a
// commit's wakeup cost is O(dirty shards), not O(registry).
const watchShardCount = 32

// shardOf maps a path to its registry shard: FNV-1a over the path, mod
// shards. The hash is spelled out instead of delegated to a seed-randomized
// library hash so it is stable across processes (see ShardOf).
func shardOf(path string, shards int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(path); i++ {
		h ^= uint64(path[i])
		h *= prime64
	}
	return int(h % uint64(shards))
}

// watchShard is one lock's worth of the registry: path → set of wake
// channels, keyed by a per-shard registration id so cancel is O(1).
type watchShard struct {
	mu     sync.Mutex
	paths  map[string]map[uint64]chan<- struct{}
	nextID uint64
}

func (s *Store) watchShardOf(path string) *watchShard {
	return &s.watchers[shardOf(path, watchShardCount)]
}

// watchPath registers a wake channel for path and returns its cancel.
// The channel should have capacity 1; wakeups are non-blocking sends, so
// a full channel simply means a wake is already pending — the watcher
// will drain everything it finds when it gets around to looking.
func (s *Store) watchPath(path string, wake chan<- struct{}) (cancel func()) {
	sh := s.watchShardOf(path)
	sh.mu.Lock()
	if sh.paths == nil {
		sh.paths = make(map[string]map[uint64]chan<- struct{})
	}
	set := sh.paths[path]
	if set == nil {
		set = make(map[uint64]chan<- struct{})
		sh.paths[path] = set
	}
	id := sh.nextID
	sh.nextID++
	set[id] = wake
	sh.mu.Unlock()
	return func() {
		sh.mu.Lock()
		if set := sh.paths[path]; set != nil {
			delete(set, id)
			if len(set) == 0 {
				delete(sh.paths, path)
			}
		}
		sh.mu.Unlock()
	}
}

// wakeWatchers signals every watcher of every path in a committed batch.
// A commit batch carries each path at most once, so no dedup is needed;
// sends are non-blocking against capacity-1 channels, so a slow watcher
// costs the committer nothing.
func (s *Store) wakeWatchers(evs []StoreEvent) {
	var woken uint64
	for _, ev := range evs {
		sh := s.watchShardOf(ev.Path)
		sh.mu.Lock()
		for _, ch := range sh.paths[ev.Path] {
			select {
			case ch <- struct{}{}:
			default:
			}
			woken++
		}
		sh.mu.Unlock()
	}
	if woken > 0 {
		s.fanout.wakes.Add(woken)
	}
}

// wakeAllWatchers nudges every registered watcher regardless of path —
// used for store-wide state changes (close, crash, replicated reset)
// that every held connection must notice.
func (s *Store) wakeAllWatchers() {
	for i := range s.watchers {
		sh := &s.watchers[i]
		sh.mu.Lock()
		for _, set := range sh.paths {
			for _, ch := range set {
				select {
				case ch <- struct{}{}:
				default:
				}
			}
		}
		sh.mu.Unlock()
	}
}

// watcherCounts reports the registered-watcher population, total and per
// shard, for StoreStats.
func (s *Store) watcherCounts() (total int, per []int) {
	per = make([]int, watchShardCount)
	for i := range s.watchers {
		sh := &s.watchers[i]
		sh.mu.Lock()
		n := 0
		for _, set := range sh.paths {
			n += len(set)
		}
		sh.mu.Unlock()
		per[i] = n
		total += n
	}
	return total, per
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
	// (held streams); ShardWatchers is the per-registry-shard breakdown.
	Watchers      int
	ShardWatchers []int
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
	// Heartbeats counts idle-stream liveness comments written by the
	// shared sweep.
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
// the registry walk takes each shard lock briefly; no store lock is held.
func (s *Store) fanoutStats() FanoutStats {
	total, per := s.watcherCounts()
	return FanoutStats{
		Watchers:      total,
		ShardWatchers: per,
		Wakes:         s.fanout.wakes.Load(),
		Streams:       s.fanout.streams.Load(),
		Batches:       s.fanout.batches.Load(),
		Events:        s.fanout.events.Load(),
		BatchP50:      s.fanout.batchPercentile(0.50),
		BatchP99:      s.fanout.batchPercentile(0.99),
		BatchMax:      int(s.fanout.batchMax.Load()),
		Heartbeats:    s.fanout.pump.Heartbeats.Load(),
		Evictions:     s.fanout.pump.Evictions.Load(),
		Resets:        s.fanout.resets.Load(),
	}
}
