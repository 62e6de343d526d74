package experiments

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"livedev/internal/ifsvr"
)

// The restart-reconnect experiment: an Interface Server with N held
// streaming watchers restarts. How long until every watcher is caught up
// again — and what does the answer cost?
//
//   - "restart-replay": the store reopens from its data dir (snapshot +
//     WAL), so epochs continue and each reconnect is served a journal
//     delta (event: replay) of exactly the versions committed while the
//     server was down.
//   - "restart-snapshot": the reopened journal no longer covers the
//     watchers' epochs (shrunk on reopen), so every reconnect degrades to
//     a full snapshot fetch — the N-fetch stampede persistence exists to
//     avoid.

// RestartConfig parameterizes the restart-reconnect experiment.
type RestartConfig struct {
	// Watchers is the number of concurrent streaming watchers (default
	// 1000).
	Watchers int
	// Rounds is the number of measured restarts per mode (default 3).
	Rounds int
	// DownCommits is how many versions commit while the watchers are
	// disconnected (default 5).
	DownCommits int
}

func (c RestartConfig) withDefaults() RestartConfig {
	if c.Watchers <= 0 {
		c.Watchers = 1000
	}
	if c.Rounds <= 0 {
		c.Rounds = 3
	}
	if c.DownCommits <= 0 {
		c.DownCommits = 5
	}
	return c
}

// RunRestartReconnect measures the restart→all-watchers-caught-up latency
// for the replay and snapshot recovery paths. The rows reuse the fan-out
// row shape (mode, watchers, mean/p50/max; evictions are the last
// incarnation's).
func RunRestartReconnect(cfg RestartConfig) ([]FanoutRow, error) {
	cfg = cfg.withDefaults()
	var rows []FanoutRow
	for _, mode := range []string{"restart-replay", "restart-snapshot"} {
		row, err := runRestartOne(mode, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", mode, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runRestartOne(mode string, cfg RestartConfig) (FanoutRow, error) {
	dir, err := os.MkdirTemp("", "livedev-restart-*")
	if err != nil {
		return FanoutRow{}, err
	}
	defer func() { _ = os.RemoveAll(dir) }()

	open := func(historyLen int) (*ifsvr.Store, error) {
		return ifsvr.OpenStore(ifsvr.StoreConfig{Dir: dir, HistoryLen: historyLen})
	}
	st, err := open(0)
	if err != nil {
		return FanoutRow{}, err
	}
	srv := ifsvr.NewView(st)
	base, err := srv.Start("127.0.0.1:0")
	if err != nil {
		st.Close()
		return FanoutRow{}, err
	}
	addr := base[len("http://"):]
	const path = "/wsdl/Restart.wsdl"
	url := base + path
	version := uint64(1)
	st.PublishVersioned(path, "text/xml", "<v1/>", version)

	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = cfg.Watchers + 4
	hc := &http.Client{Transport: tr}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
		st.Close()
		_ = srv.Close()
	}()

	// Each watcher holds one stream, reconnecting with its last seen epoch
	// after a break — the WithWatch client's loop, minus the compile step.
	seen := make([]atomic.Uint64, cfg.Watchers)
	for w := 0; w < cfg.Watchers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var lastEpoch uint64
			for ctx.Err() == nil {
				_ = ifsvr.WatchStream(ctx, hc, url, lastEpoch, func(ev ifsvr.StreamEvent) {
					lastEpoch = ev.Doc.Epoch
					if ev.Doc.Version > seen[w].Load() {
						seen[w].Store(ev.Doc.Version)
					}
				})
				if ctx.Err() == nil {
					time.Sleep(10 * time.Millisecond)
				}
			}
		}(w)
	}
	waitAll := func(v uint64) error {
		deadline := time.Now().Add(120 * time.Second)
		for {
			all := true
			for w := range seen {
				if seen[w].Load() < v {
					all = false
					break
				}
			}
			if all {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("watchers did not converge on version %d", v)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	if err := waitAll(version); err != nil {
		return FanoutRow{}, err
	}

	var latencies []time.Duration
	for r := 0; r < cfg.Rounds; r++ {
		// Down: the server and store go away; watchers spin on reconnects.
		if err := srv.Close(); err != nil {
			return FanoutRow{}, err
		}
		st.Close()

		// Reopen from the data dir. The replay mode keeps the journal big
		// enough to cover the downtime commits; the snapshot mode reopens
		// with a journal too small to hold them, forcing the stampede.
		histLen := 0
		if mode == "restart-snapshot" {
			histLen = -1
		}
		if st, err = open(histLen); err != nil {
			return FanoutRow{}, err
		}
		for i := 0; i < cfg.DownCommits; i++ {
			version++
			st.PublishVersioned(path, "text/xml", fmt.Sprintf("<v%d/>", version), version)
		}
		srv = ifsvr.NewView(st)
		start := time.Now()
		if _, err = srv.Start(addr); err != nil {
			return FanoutRow{}, fmt.Errorf("rebinding %s: %w", addr, err)
		}
		if err := waitAll(version); err != nil {
			return FanoutRow{}, err
		}
		latencies = append(latencies, time.Since(start))
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	var total time.Duration
	for _, l := range latencies {
		total += l
	}
	return FanoutRow{
		Transport: mode,
		Watchers:  cfg.Watchers,
		Edits:     len(latencies),
		Mean:      total / time.Duration(len(latencies)),
		P50:       latencies[len(latencies)/2],
		P99:       latencies[len(latencies)*99/100],
		Max:       latencies[len(latencies)-1],
		Evictions: st.Stats().Fanout.Evictions,
	}, nil
}
