package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"livedev/internal/ifsvr"
)

// The durability experiments quantify the group-commit WAL:
//
//  1. Throughput: a publication acked under SyncGroupCommit is on disk,
//     yet a closed-loop publisher storm keeps a large fraction of the
//     SyncNone (buffered, ack-before-durable) commit rate, because
//     concurrent commits share fsyncs instead of queuing behind them.
//     SyncAlways is the honest lower bound: one fsync per commit.
//
//  2. Recovery: how long OpenStore takes to replay a WAL-resident
//     dataset from a cold page cache. The trial evicts the page cache
//     first (dropFileCache) so the reads are real; without eviction the
//     experiment would measure memcpy, not recovery.
//
// Durable stores live under os.TempDir; each run cleans up after itself.

// DurabilityConfig parameterizes RunDurabilitySweep.
type DurabilityConfig struct {
	// Publishers is the concurrent publisher count of the throughput
	// storm (default 1024); each publisher owns one path.
	Publishers int
	// Commits is the closed-loop commit count per publisher (default 50).
	Commits int
	// DocBytes is the throughput storm's document size (default 64; see
	// withDefaults for why the storm deliberately commits small documents).
	DocBytes int

	// RecoveryDocs and RecoveryBytes shape the recovery dataset: docs of
	// that content size, all resident in the WAL (snapshot cadence pushed
	// out). Defaults 96 docs x 96 KiB — big enough that reading the log
	// back is real I/O next to decoding it.
	RecoveryDocs  int
	RecoveryBytes int
	// Trials is how many times each configuration is run; the best trial
	// is reported (max throughput, min recovery time), the usual guard
	// against scheduler and disk noise (default 3).
	Trials int
}

func (c DurabilityConfig) withDefaults() DurabilityConfig {
	if c.Publishers <= 0 {
		c.Publishers = 1024
	}
	if c.Commits <= 0 {
		c.Commits = 50
	}
	if c.DocBytes <= 0 {
		// Edit-sized commits, not whole-interface uploads: the storm
		// isolates per-commit durability overhead (fsync sharing, wakeups),
		// and on a one-CPU host the kernel burns CPU roughly per dirty
		// byte inside each fsync, so large documents would measure disk
		// bandwidth instead. The recovery rows cover the large-document
		// regime.
		c.DocBytes = 64
	}
	if c.RecoveryDocs <= 0 {
		c.RecoveryDocs = 96
	}
	if c.RecoveryBytes <= 0 {
		c.RecoveryBytes = 96 << 10
	}
	if c.Trials <= 0 {
		c.Trials = 3
	}
	return c
}

// DurabilityResult is one measured configuration: a throughput row
// (OpsPerSec under a sync policy) or the recovery row.
type DurabilityResult struct {
	// Kind is "throughput" or "recovery".
	Kind string
	// Policy is the sync policy of a throughput row ("" on recovery rows).
	Policy ifsvr.SyncPolicy
	// Publishers and Paths describe the throughput storm (0 on recovery
	// rows).
	Publishers int
	Paths      int
	// Commits is the total committed publications (throughput) or the
	// replayed record count (recovery).
	Commits int
	// OpsPerSec is the closed-loop commit rate of a throughput row.
	OpsPerSec float64
	// Recovery is the best-of-Trials cold-cache OpenStore time of a
	// recovery row.
	Recovery time.Duration
	// Fsyncs and BatchMean report the durability backend's fsync count
	// and group-commit batch size over a throughput run.
	Fsyncs    uint64
	BatchMean float64
}

// RunDurabilitySweep measures commit throughput under each sync policy and
// cold-cache recovery time.
func RunDurabilitySweep(cfg DurabilityConfig) ([]DurabilityResult, error) {
	cfg = cfg.withDefaults()
	var out []DurabilityResult
	for _, policy := range []ifsvr.SyncPolicy{ifsvr.SyncNone, ifsvr.SyncGroupCommit, ifsvr.SyncAlways} {
		var best DurabilityResult
		for trial := 0; trial < cfg.Trials; trial++ {
			r, err := runThroughput(cfg, policy)
			if err != nil {
				return nil, err
			}
			if r.OpsPerSec > best.OpsPerSec {
				best = r
			}
		}
		out = append(out, best)
	}
	r, err := runRecovery(cfg)
	if err != nil {
		return nil, err
	}
	return append(out, r), nil
}

// runThroughput runs the closed-loop publisher storm under one policy. The
// storm is deliberately wide with small documents — the regime group
// commit exists for, where the commit CPU of a large group amortizes the
// fixed fsync cost instead of every commit queuing behind it.
func runThroughput(cfg DurabilityConfig, policy ifsvr.SyncPolicy) (DurabilityResult, error) {
	dir, err := os.MkdirTemp("", "livedev-durability-*")
	if err != nil {
		return DurabilityResult{}, fmt.Errorf("experiments: durability temp dir: %w", err)
	}
	defer func() { _ = os.RemoveAll(dir) }()
	st, err := ifsvr.OpenStore(ifsvr.StoreConfig{
		Dir:           dir,
		Sync:          policy,
		SnapshotEvery: cfg.Publishers * cfg.Commits * 2, // keep compaction out of the timed window
	})
	if err != nil {
		return DurabilityResult{}, fmt.Errorf("experiments: opening %v store: %w", policy, err)
	}
	content := strings.Repeat("x", cfg.DocBytes)
	drainWriteback() // a prior run's dirty pages must not tax this run's fsyncs
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Publishers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			path := fmt.Sprintf("/wsdl/storm-%02d.wsdl", w)
			for i := 1; i <= cfg.Commits; i++ {
				st.PublishVersioned(path, "text/xml", content, uint64(i))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	res := DurabilityResult{
		Kind:       "throughput",
		Policy:     policy,
		Publishers: cfg.Publishers,
		Paths:      cfg.Publishers,
		Commits:    cfg.Publishers * cfg.Commits,
	}
	res.OpsPerSec = float64(res.Commits) / elapsed.Seconds()
	if d := st.Stats().Durability; d != nil {
		res.Fsyncs = d.Fsyncs
		res.BatchMean = d.GroupCommitMean()
	}
	if err := st.Crash(); err != nil {
		return DurabilityResult{}, fmt.Errorf("experiments: closing %v store: %w", policy, err)
	}
	return res, nil
}

// runRecovery builds one WAL-resident dataset, then times cold-cache
// OpenStore, best of cfg.Trials.
func runRecovery(cfg DurabilityConfig) (DurabilityResult, error) {
	dir, err := os.MkdirTemp("", "livedev-durability-*")
	if err != nil {
		return DurabilityResult{}, fmt.Errorf("experiments: durability temp dir: %w", err)
	}
	defer func() { _ = os.RemoveAll(dir) }()
	st, err := ifsvr.OpenStore(ifsvr.StoreConfig{
		Dir:           dir,
		SnapshotEvery: cfg.RecoveryDocs * 2, // everything stays in the WAL
	})
	if err != nil {
		return DurabilityResult{}, fmt.Errorf("experiments: opening recovery store: %w", err)
	}
	content := strings.Repeat("y", cfg.RecoveryBytes)
	for i := 0; i < cfg.RecoveryDocs; i++ {
		st.Publish(fmt.Sprintf("/wsdl/recovery-%04d.wsdl", i), "text/xml", content)
	}
	// Crash, not Close: a close would compact the WAL into snapshots and
	// there would be nothing left to replay.
	if err := st.Crash(); err != nil {
		return DurabilityResult{}, fmt.Errorf("experiments: crashing recovery store: %w", err)
	}

	best := time.Duration(0)
	for trial := 0; trial < cfg.Trials; trial++ {
		drainWriteback()
		if err := evictDir(dir); err != nil {
			return DurabilityResult{}, err
		}
		start := time.Now()
		st, err := ifsvr.OpenStore(ifsvr.StoreConfig{Dir: dir, SnapshotEvery: cfg.RecoveryDocs * 2})
		if err != nil {
			return DurabilityResult{}, fmt.Errorf("experiments: recovering store: %w", err)
		}
		elapsed := time.Since(start)
		if n := len(st.Paths()); n != cfg.RecoveryDocs {
			_ = st.Crash()
			return DurabilityResult{}, fmt.Errorf("experiments: recovery yielded %d docs, want %d", n, cfg.RecoveryDocs)
		}
		if err := st.Crash(); err != nil {
			return DurabilityResult{}, fmt.Errorf("experiments: closing recovered store: %w", err)
		}
		if best == 0 || elapsed < best {
			best = elapsed
		}
	}
	return DurabilityResult{
		Kind:     "recovery",
		Commits:  cfg.RecoveryDocs,
		Recovery: best,
	}, nil
}

// evictDir flushes and drops every data-dir file from the page cache so the
// next recovery reads from disk.
func evictDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("experiments: listing %s: %w", dir, err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if err := dropFileCache(filepath.Join(dir, e.Name())); err != nil {
			return fmt.Errorf("experiments: evicting %s: %w", e.Name(), err)
		}
	}
	return nil
}

// FormatDurability renders the sweep results as two human-readable tables.
func FormatDurability(rows []DurabilityResult) string {
	var b strings.Builder
	b.WriteString("Durable commit throughput (closed-loop publisher storm)\n")
	fmt.Fprintf(&b, "%-8s %11s %8s %8s %10s\n", "sync", "publishers", "commits", "fsyncs", "ops/sec")
	for _, r := range rows {
		if r.Kind != "throughput" {
			continue
		}
		fmt.Fprintf(&b, "%-8s %11d %8d %8d %10.0f", r.Policy, r.Publishers, r.Commits, r.Fsyncs, r.OpsPerSec)
		if r.BatchMean > 0 {
			fmt.Fprintf(&b, "  (%.1f commits/fsync)", r.BatchMean)
		}
		b.WriteByte('\n')
	}
	b.WriteString("\nCold-cache recovery (WAL-resident dataset, best of trials)\n")
	fmt.Fprintf(&b, "%8s %12s\n", "docs", "recovery")
	for _, r := range rows {
		if r.Kind != "recovery" {
			continue
		}
		fmt.Fprintf(&b, "%8d %12s\n", r.Commits, r.Recovery.Round(100*time.Microsecond))
	}
	return b.String()
}
