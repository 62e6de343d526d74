package experiments

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"livedev/internal/ifsvr"
	"livedev/internal/repl"
)

// The replication fan-out experiment: does adding read-only replicas keep
// the edit→all-notified latency flat as the watcher population grows past
// what one server comfortably holds? N SSE watchers are spread
// round-robin across a leader and R-1 followers; each edit is timed until
// the LAST watcher (on any replica) has observed it, and separately until
// each follower's store serves it (the replication lag).
//
// The leader and every follower run as separate PROCESSES (the
// experiment binary re-execs itself, see ReplicationChild): that is both
// the honest deployment shape — replicas exist to put another machine's
// kernel behind the watchers — and a practical necessity, since a
// 10k-watcher population holds both socket ends of every SSE stream,
// which no single process fits under a typical file-descriptor limit.
// The parent process holds only the client ends.

// replChildEnv selects the child role when the experiment binary
// re-execs itself; replLeaderEnv hands a follower child its leader URL.
const (
	replChildEnv  = "LIVEDEV_REPL_CHILD"
	replLeaderEnv = "LIVEDEV_REPL_LEADER"
	replPath      = "/wsdl/Repl.wsdl"
)

// ReplicationRow summarizes one replica-count configuration.
type ReplicationRow struct {
	// Replicas is the number of serving replicas (leader included).
	Replicas int
	// Watchers is the total SSE watcher population, spread round-robin.
	Watchers int
	// Edits is the number of measured edit rounds.
	Edits int
	// Mean, P50, and Max summarize the edit→all-notified latency across
	// the whole plane.
	Mean, P50, Max time.Duration
	// LagP50 and LagP99 summarize the per-follower replication lag: the
	// time from the leader commit until a follower's store serves the new
	// version (zero with no followers).
	LagP50, LagP99 time.Duration
}

// ReplicationConfig parameterizes the replication fan-out experiment.
type ReplicationConfig struct {
	// Replicas lists the replica counts to measure (default 1, 2, 4).
	Replicas []int
	// Watchers is the total watcher population (default 1000).
	Watchers int
	// Edits is the number of edit rounds per configuration (default 5).
	Edits int
}

func (c ReplicationConfig) withDefaults() ReplicationConfig {
	if len(c.Replicas) == 0 {
		c.Replicas = []int{1, 2, 4}
	}
	if c.Watchers <= 0 {
		c.Watchers = 1000
	}
	if c.Edits <= 0 {
		c.Edits = 5
	}
	return c
}

// ReplicationChild runs the leader/follower child role and exits when
// the re-exec environment variable is set; it returns immediately
// otherwise. Binaries that call RunReplicationFanout must call this
// first thing in main (the experiments test binary does it in TestMain).
func ReplicationChild() {
	switch os.Getenv(replChildEnv) {
	case "":
		return
	case "leader":
		runReplicationLeaderChild()
	case "follower":
		runReplicationFollowerChild(os.Getenv(replLeaderEnv))
	}
	os.Exit(0)
}

// runReplicationLeaderChild serves a fresh store, prints its base URL, then publishes one version per line
// read from stdin until EOF. A line is "V" or "V SIZE": the version to
// publish, optionally padded to roughly SIZE bytes (the fan-out stall
// experiment publishes fat documents through the same child).
func runReplicationLeaderChild() {
	st := ifsvr.NewStore(0, nil)
	srv := ifsvr.NewView(st)
	base, err := srv.Start("127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "repl leader child:", err)
		os.Exit(1)
	}
	st.PublishVersioned(replPath, "text/xml", "<v1/>", 1)
	fmt.Println(base)
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		v, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil || v == 0 {
			continue
		}
		payload := 0
		if len(fields) > 1 {
			if p, perr := strconv.Atoi(fields[1]); perr == nil && p > 0 {
				payload = p
			}
		}
		st.PublishVersioned(replPath, "text/xml", fanoutDoc(v, payload), v)
	}
	st.Close()
	_ = srv.Close()
}

// runReplicationFollowerChild follows the given leader, prints its base
// URL, and serves until stdin closes (the parent going away).
func runReplicationFollowerChild(leader string) {
	f, err := repl.OpenFollower(repl.FollowerConfig{Leader: leader})
	if err != nil {
		fmt.Fprintln(os.Stderr, "repl follower child:", err)
		os.Exit(1)
	}
	base, err := f.Serve("127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "repl follower child:", err)
		os.Exit(1)
	}
	fmt.Println(base)
	_, _ = io.Copy(io.Discard, os.Stdin)
	f.Close()
}

// replChild is one spawned replica process.
type replChild struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	base  string
}

// spawnReplChild re-execs the current binary as a replica child and
// reads the base URL it announces.
func spawnReplChild(role, leader string) (*replChild, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), replChildEnv+"="+role, replLeaderEnv+"="+leader)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	lines := make(chan string, 1)
	go func() {
		line, err := bufio.NewReader(stdout).ReadString('\n')
		if err == nil {
			lines <- strings.TrimSpace(line)
		}
		close(lines)
	}()
	select {
	case base, ok := <-lines:
		if !ok || base == "" {
			_ = cmd.Process.Kill()
			return nil, fmt.Errorf("%s child announced no base URL", role)
		}
		return &replChild{cmd: cmd, stdin: stdin, base: base}, nil
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		return nil, fmt.Errorf("%s child did not start", role)
	}
}

// stop closes the child's stdin (its exit signal) and reaps it.
func (c *replChild) stop() {
	_ = c.stdin.Close()
	done := make(chan struct{})
	go func() { _ = c.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = c.cmd.Process.Kill()
		<-done
	}
}

// RunReplicationFanout measures the watch plane at each replica count.
// Every configuration gets a fresh leader process and R-1 fresh follower
// processes. The parent still holds one client socket per watcher, so
// the soft file-descriptor limit is raised best-effort first.
func RunReplicationFanout(cfg ReplicationConfig) ([]ReplicationRow, error) {
	cfg = cfg.withDefaults()
	raiseFDLimit(uint64(2*cfg.Watchers + 256))
	var rows []ReplicationRow
	for _, r := range cfg.Replicas {
		row, err := runReplicationOne(r, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: replication %d replicas: %w", r, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runReplicationOne(replicas int, cfg ReplicationConfig) (ReplicationRow, error) {
	leader, err := spawnReplChild("leader", "")
	if err != nil {
		return ReplicationRow{}, err
	}
	children := []*replChild{leader}
	defer func() {
		for _, c := range children {
			c.stop()
		}
	}()
	endpoints := []string{leader.base}
	for i := 1; i < replicas; i++ {
		f, err := spawnReplChild("follower", leader.base)
		if err != nil {
			return ReplicationRow{}, err
		}
		children = append(children, f)
		endpoints = append(endpoints, f.base)
	}
	followers := endpoints[1:]

	// A small client for store-convergence polling, and a big one with
	// connection capacity for the whole watcher population (no client
	// timeout: SSE streams are long by design).
	lagHC := &http.Client{Timeout: 5 * time.Second}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = cfg.Watchers + 4
	hc := &http.Client{Transport: tr}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
	}()

	// Wait for every follower to have bootstrapped the seed document
	// before aiming watchers at it.
	for _, f := range followers {
		if err := awaitVersion(ctx, lagHC, f+replPath, 1, 30*time.Second); err != nil {
			return ReplicationRow{}, err
		}
	}

	seen := make([]atomic.Uint64, cfg.Watchers)
	ready := make(chan struct{}, cfg.Watchers)
	for w := 0; w < cfg.Watchers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			url := endpoints[w%len(endpoints)] + replPath
			first := true
			for ctx.Err() == nil {
				if first {
					ready <- struct{}{}
					first = false
				}
				_ = ifsvr.WatchStream(ctx, hc, url, 0, func(ev ifsvr.StreamEvent) {
					if ev.Doc.Version > seen[w].Load() {
						seen[w].Store(ev.Doc.Version)
					}
				})
			}
		}(w)
	}
	for w := 0; w < cfg.Watchers; w++ {
		select {
		case <-ready:
		case <-time.After(60 * time.Second):
			return ReplicationRow{}, fmt.Errorf("watchers did not start")
		}
	}
	time.Sleep(100 * time.Millisecond)

	var latencies, lags []time.Duration
	version := uint64(1)
	for e := 0; e < cfg.Edits; e++ {
		version++
		start := time.Now()
		if _, err := fmt.Fprintf(leader.stdin, "%d\n", version); err != nil {
			return ReplicationRow{}, fmt.Errorf("leader child went away: %w", err)
		}

		// Per-follower store-convergence lag, polled concurrently with
		// the watcher spin below.
		lagCh := make(chan time.Duration, len(followers))
		for _, f := range followers {
			go func(url string) {
				if err := awaitVersion(ctx, lagHC, url, version, 120*time.Second); err != nil {
					lagCh <- -1
					return
				}
				lagCh <- time.Since(start)
			}(f + replPath)
		}

		deadline := start.Add(120 * time.Second)
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
				return ReplicationRow{}, fmt.Errorf("edit %d: not all watchers converged on version %d", e+1, version)
			}
			time.Sleep(100 * time.Microsecond)
		}
		latencies = append(latencies, time.Since(start))
		for range followers {
			lag := <-lagCh
			if lag < 0 {
				return ReplicationRow{}, fmt.Errorf("edit %d: a follower store never converged on version %d", e+1, version)
			}
			lags = append(lags, lag)
		}
	}

	row := ReplicationRow{Replicas: replicas, Watchers: cfg.Watchers, Edits: len(latencies)}
	sorted := append([]time.Duration(nil), latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var total time.Duration
	for _, l := range sorted {
		total += l
	}
	row.Mean = total / time.Duration(len(sorted))
	row.P50 = sorted[len(sorted)/2]
	row.Max = sorted[len(sorted)-1]
	if len(lags) > 0 {
		sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
		row.LagP50 = lags[len(lags)/2]
		row.LagP99 = lags[len(lags)*99/100]
	}
	return row, nil
}

// awaitVersion polls url until the served document reaches version v.
func awaitVersion(ctx context.Context, hc *http.Client, url string, v uint64, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for {
		doc, err := ifsvr.FetchContext(ctx, hc, url)
		if err == nil && doc.Version >= v {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never reached version %d (last err: %v)", url, v, err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// FormatReplication renders the replication rows as an aligned table.
func FormatReplication(rows []ReplicationRow) string {
	var b strings.Builder
	b.WriteString("Replication fan-out: edit→all-notified latency across the replica plane\n")
	fmt.Fprintf(&b, "%9s %9s %6s %12s %12s %12s %12s %12s\n",
		"replicas", "watchers", "edits", "mean", "p50", "max", "lag p50", "lag p99")
	for _, r := range rows {
		fmt.Fprintf(&b, "%9d %9d %6d %12s %12s %12s %12s %12s\n",
			r.Replicas, r.Watchers, r.Edits,
			r.Mean.Round(10*time.Microsecond), r.P50.Round(10*time.Microsecond), r.Max.Round(10*time.Microsecond),
			r.LagP50.Round(10*time.Microsecond), r.LagP99.Round(10*time.Microsecond))
	}
	return b.String()
}
