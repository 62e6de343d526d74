package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"livedev/internal/ifsvr"
)

// The watcher fan-out experiment: how long after a committed edit have ALL
// of N concurrent watchers observed it? Each watcher holds one SSE
// connection, so a commit is N event writes on already-open sockets.
//
// Past fanoutChildWatchers the server runs as a separate PROCESS
// (re-exec, the same leader child the replication experiment uses): both
// ends of every SSE socket in one fd table blows the descriptor limit,
// and an in-process server would share the Go scheduler with N client
// goroutines, measuring contention instead of fan-out.

// fanoutChildWatchers is the fan-out size past which the serving store
// moves to a child process.
const fanoutChildWatchers = 2000

// FanoutRow summarizes one (configuration, watcher-count) run.
type FanoutRow struct {
	// Transport names the configuration measured: "stream", the stall
	// pair "stream-base"/"stream-stall", or a restart recovery mode.
	Transport string
	// Watchers is the number of concurrent watchers.
	Watchers int
	// Edits is the number of measured edit rounds.
	Edits int
	// Mean, P50, P99, and Max summarize the edit→all-notified latency: the
	// time from the commit until the LAST watcher has observed the new
	// version.
	Mean, P50, P99, Max time.Duration
	// Evictions is the server's count of streams it dropped for
	// backpressure by the end of the run: 1 for a stall row whose frozen
	// client filled its socket, 0 when every watcher kept up.
	Evictions uint64
}

// FanoutConfig parameterizes the fan-out experiment.
type FanoutConfig struct {
	// Watchers lists the fan-out sizes to measure (default 1, 100, 1000).
	Watchers []int
	// Edits is the number of edit rounds per configuration (default 5).
	Edits int
	// Payload pads each published document to roughly this many bytes
	// (default 0: the tiny "<vN/>" form, so the numbers measure the
	// transport, not the payload).
	Payload int
}

func (c FanoutConfig) withDefaults() FanoutConfig {
	if len(c.Watchers) == 0 {
		c.Watchers = []int{1, 100, 1000}
	}
	if c.Edits <= 0 {
		c.Edits = 5
	}
	return c
}

// FanoutStallConfig parameterizes the stalled-watcher torture run.
type FanoutStallConfig struct {
	// Watchers is the healthy stream-watcher population (default 10000).
	Watchers int
	// Edits is the number of measured edit rounds (default 8).
	Edits int
	// Payload pads each published document to roughly this many bytes
	// (default 16384). The stalled connection's socket only fills once
	// Edits × Payload passes what loopback absorbs — a few MB; a run that
	// sends less never blocks a server write and its stall row reports 0
	// evictions.
	Payload int
}

func (c FanoutStallConfig) withDefaults() FanoutStallConfig {
	if c.Watchers <= 0 {
		c.Watchers = 10000
	}
	if c.Edits <= 0 {
		c.Edits = 8
	}
	if c.Payload <= 0 {
		c.Payload = 16384
	}
	return c
}

// RunWatchFanout measures the edit→all-notified latency at each fan-out
// size. Every size gets a fresh store and HTTP view.
func RunWatchFanout(cfg FanoutConfig) ([]FanoutRow, error) {
	cfg = cfg.withDefaults()
	var rows []FanoutRow
	for _, n := range cfg.Watchers {
		row, err := runFanoutOne("stream", n, cfg, false)
		if err != nil {
			return nil, fmt.Errorf("experiments: fan-out stream/%d: %w", n, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RunFanoutStall measures backpressure isolation: the edit→all-notified
// latency of N healthy stream watchers, once on its own ("stream-base")
// and once with a stalled client — a connection that completes the SSE
// request and then never reads — sharing the server ("stream-stall"). If
// the delivery pumps isolate the stall, the two rows match; under the old
// push-per-commit fan-out the stalled socket would have dragged every
// healthy watcher down with it.
func RunFanoutStall(cfg FanoutStallConfig) ([]FanoutRow, error) {
	cfg = cfg.withDefaults()
	fc := FanoutConfig{Edits: cfg.Edits, Payload: cfg.Payload}
	var rows []FanoutRow
	for _, run := range []struct {
		label string
		stall bool
	}{{"stream-base", false}, {"stream-stall", true}} {
		row, err := runFanoutOne(run.label, cfg.Watchers, fc, run.stall)
		if err != nil {
			return nil, fmt.Errorf("experiments: fan-out %s/%d: %w", run.label, cfg.Watchers, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// fanoutDoc renders the published document body for one version. A zero
// payload keeps the tiny "<vN/>" form; a positive payload pads the body
// to roughly that many bytes so the socket writes carry real weight.
func fanoutDoc(version uint64, payload int) string {
	head := fmt.Sprintf("<v%d>", version)
	tail := fmt.Sprintf("</v%d>", version)
	if payload <= len(head)+len(tail) {
		return fmt.Sprintf("<v%d/>", version)
	}
	return head + strings.Repeat("x", payload-len(head)-len(tail)) + tail
}

// openStalledStream opens a raw SSE request against the server and never
// reads the response — a frozen client. The shrunken receive buffer makes
// the kernel's flow control bite after a few events instead of a few
// hundred, so the server's write deadline (its backpressure valve) is
// actually exercised.
func openStalledStream(base, path string) (net.Conn, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, err
	}
	conn, err := net.Dial("tcp", u.Host)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(4096)
	}
	req := fmt.Sprintf("GET %s?watch=stream&after=0 HTTP/1.1\r\nHost: %s\r\nAccept: text/event-stream\r\n\r\n", path, u.Host)
	if _, err := conn.Write([]byte(req)); err != nil {
		_ = conn.Close()
		return nil, err
	}
	return conn, nil
}

// runFanoutOne times cfg.Edits edits against watchers held streams; label
// names the row, stall adds one frozen client beside them.
func runFanoutOne(label string, watchers int, cfg FanoutConfig, stall bool) (FanoutRow, error) {
	raiseFDLimit(uint64(watchers) + 1024)

	// The serving side: in-process for small populations, a re-exec'd
	// child process (the replication experiment's leader role) past
	// fanoutChildWatchers.
	var (
		path    string
		base    string
		publish func(v uint64) error
		cleanup func()
	)
	if watchers >= fanoutChildWatchers {
		child, err := spawnReplChild("leader", "")
		if err != nil {
			return FanoutRow{}, err
		}
		path = replPath
		base = child.base
		publish = func(v uint64) error {
			_, err := fmt.Fprintf(child.stdin, "%d %d\n", v, cfg.Payload)
			return err
		}
		cleanup = child.stop
	} else {
		st := ifsvr.NewStore(0, nil)
		srv := ifsvr.NewView(st)
		b, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return FanoutRow{}, err
		}
		path = "/wsdl/Fanout.wsdl"
		base = b
		st.PublishVersioned(path, "text/xml", fanoutDoc(1, cfg.Payload), 1)
		publish = func(v uint64) error {
			st.PublishVersioned(path, "text/xml", fanoutDoc(v, cfg.Payload), v)
			return nil
		}
		cleanup = func() {
			st.Close()
			_ = srv.Close()
		}
	}
	defer cleanup()
	docURL := base + path

	// One shared client with enough connection capacity for N concurrent
	// watchers; no client-level timeout (streams are long by design).
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = watchers + 4
	hc := &http.Client{Transport: tr}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
	}()

	// Each watcher exposes the newest version it has observed; the
	// publisher side spins on these to time "all notified".
	seen := make([]atomic.Uint64, watchers)
	for w := 0; w < watchers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				_ = ifsvr.WatchStream(ctx, hc, docURL, 0, func(ev ifsvr.StreamEvent) {
					if ev.Doc.Version > seen[w].Load() {
						seen[w].Store(ev.Doc.Version)
					}
				})
			}
		}(w)
	}
	// Wait for every watcher to have actually connected and observed the
	// seed version, so edit 1 times the fan-out and not the connect ramp
	// (at 10k watchers the ramp dwarfs any single edit).
	seedDeadline := time.Now().Add(120 * time.Second)
	for {
		all := true
		for w := range seen {
			if seen[w].Load() < 1 {
				all = false
				break
			}
		}
		if all {
			break
		}
		if time.Now().After(seedDeadline) {
			return FanoutRow{}, fmt.Errorf("watchers never observed the seed version")
		}
		time.Sleep(time.Millisecond)
	}

	if stall {
		stalled, err := openStalledStream(base, path)
		if err != nil {
			return FanoutRow{}, err
		}
		defer func() { _ = stalled.Close() }()
		// Let the server accept the stalled stream before the edit storm.
		time.Sleep(100 * time.Millisecond)
	}

	var latencies []time.Duration
	version := uint64(1)
	for e := 0; e < cfg.Edits; e++ {
		version++
		start := time.Now()
		if err := publish(version); err != nil {
			return FanoutRow{}, fmt.Errorf("publishing version %d: %w", version, err)
		}
		deadline := start.Add(60 * time.Second)
		for {
			all := true
			for w := range seen {
				if seen[w].Load() < version {
					all = false
					break
				}
			}
			if all {
				break
			}
			if time.Now().After(deadline) {
				return FanoutRow{}, fmt.Errorf("edit %d: not all watchers converged on version %d", e+1, version)
			}
			time.Sleep(100 * time.Microsecond)
		}
		latencies = append(latencies, time.Since(start))
	}

	row := FanoutRow{Transport: label, Watchers: watchers, Edits: len(latencies)}
	sorted := append([]time.Duration(nil), latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var total time.Duration
	for _, l := range sorted {
		total += l
	}
	row.Mean = total / time.Duration(len(sorted))
	row.P50 = sorted[len(sorted)/2]
	row.P99 = sorted[len(sorted)*99/100]
	row.Max = sorted[len(sorted)-1]

	// A frozen client is dropped once a write to it has blocked for the
	// server's write deadline, which a short run finishes well inside:
	// wait the deadline out so the row reports the eviction instead of
	// racing it. (Loopback absorbs a few MB before a write blocks at all;
	// a run that sends the stalled stream less reports 0.)
	var patience time.Duration
	if stall {
		patience = ifsvr.DefaultStreamWriteTimeout + 2*time.Second
	}
	for deadline := time.Now().Add(patience); ; time.Sleep(10 * time.Millisecond) {
		var err error
		if row.Evictions, err = streamEvictions(ctx, hc, base); err != nil {
			return FanoutRow{}, err
		}
		if row.Evictions > 0 || !time.Now().Before(deadline) {
			return row, nil
		}
	}
}

// streamEvictions reads the backpressure-eviction counter from the
// server's stats endpoint.
func streamEvictions(ctx context.Context, hc *http.Client, base string) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+ifsvr.StatsPath, nil)
	if err != nil {
		return 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("reading %s: %w", ifsvr.StatsPath, err)
	}
	defer func() { _ = resp.Body.Close() }()
	var stats ifsvr.StoreStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return 0, fmt.Errorf("decoding %s: %w", ifsvr.StatsPath, err)
	}
	return stats.Fanout.Evictions, nil
}

// FormatFanout renders fan-out-shaped rows as an aligned table under
// title.
func FormatFanout(title string, rows []FanoutRow) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-16s %9s %6s %12s %12s %12s %12s %8s\n", "run", "watchers", "edits", "mean", "p50", "p99", "max", "evicted")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %9d %6d %12s %12s %12s %12s %8d\n",
			r.Transport, r.Watchers, r.Edits,
			r.Mean.Round(10*time.Microsecond), r.P50.Round(10*time.Microsecond),
			r.P99.Round(10*time.Microsecond), r.Max.Round(10*time.Microsecond), r.Evictions)
	}
	return b.String()
}
