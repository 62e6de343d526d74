package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"livedev"
	"livedev/internal/cde"
	"livedev/internal/dyn"
	"livedev/internal/h2b"
	"livedev/internal/ifsvr"
	"livedev/internal/ior"
	"livedev/internal/jsonb"
	"livedev/internal/orb"
	"livedev/internal/soap"
)

// childName is the argv[0] under which the staged smoke re-execs this
// test binary; started under that name the binary is the real sde-server.
const childName = "sde-server"

func TestMain(m *testing.M) {
	if filepath.Base(os.Args[0]) == childName {
		os.Exit(run())
	}
	livedev.RegisterBinding(livedev.JSONBinding())
	livedev.RegisterBinding(livedev.H2BBinding())
	os.Exit(m.Run())
}

// callsTotal reads one livedev_calls_total sample out of a /metrics body.
func callsTotal(metrics, class, binding, outcome string) (uint64, bool) {
	re := regexp.MustCompile(fmt.Sprintf(`(?m)^livedev_calls_total\{class=%q,binding=%q,outcome=%q\} (\d+)$`, class, binding, outcome))
	m := re.FindStringSubmatch(metrics)
	if m == nil {
		return 0, false
	}
	n, err := strconv.ParseUint(m[1], 10, 64)
	return n, err == nil
}

// child is one real sde-server process and its stdout lines.
type child struct {
	cmd    *exec.Cmd
	lines  chan string
	exited bool
}

// startChild re-execs this test binary as the real sde-server with args
// and reads its announcement — "  label: value" lines — until last is
// announced. The process is killed when the test ends unless wait reaped it.
func startChild(t *testing.T, fail func(string, ...any), last string, args ...string) (*child, map[string]string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		fail("%v", err)
	}
	c := &child{cmd: exec.Command(exe, args...), lines: make(chan string, 64)} // the server prints ~15 lines in its whole life; never blocks the child
	c.cmd.Args[0] = childName
	c.cmd.Stderr = os.Stderr
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		fail("%v", err)
	}
	if err := c.cmd.Start(); err != nil {
		fail("%v", err)
	}
	t.Cleanup(func() {
		if !c.exited {
			_ = c.cmd.Process.Kill()
			_ = c.cmd.Wait()
		}
	})
	go func() {
		defer close(c.lines)
		for sc := bufio.NewScanner(stdout); sc.Scan(); {
			c.lines <- sc.Text()
		}
	}()
	urls := map[string]string{}
	for startup := time.After(5 * time.Second); urls[last] == ""; {
		select {
		case line, ok := <-c.lines:
			if !ok {
				fail("server exited before announcing its URLs (got %v)", urls)
			}
			if label, value, found := strings.Cut(strings.TrimSpace(line), ":"); found {
				urls[label] = strings.TrimSpace(value)
			}
		case <-startup:
			fail("no URL announcement within 5s (got %v)", urls)
		}
	}
	return c, urls
}

// wait reads the signalled child's output to its end, for at most hung,
// and reaps it: whether it printed "shut down cleanly", and how it exited.
func (c *child) wait(fail func(string, ...any), hung time.Duration) (clean bool, err error) {
	for timeout, running := time.After(hung), true; running; {
		select {
		case line, open := <-c.lines:
			running = open
			clean = clean || strings.Contains(line, "shut down cleanly")
		case <-timeout:
			fail("still running %v after SIGTERM", hung)
		}
	}
	err = c.cmd.Wait()
	c.exited = true
	return clean, err
}

// TestStagedSmoke drives the real sde-server process through its life:
// start → probe → exercise every binding → scrape and assert /metrics →
// walk a -follow replica → SIGTERM with a watch client attached. Every
// failure names its stage.
// isStaleReply reports whether err is the JSON or H2B Caller's "Non
// Existent Method" reply.
func isStaleReply(err error) bool { return errors.As(err, new(*cde.StaleReply)) }

func TestStagedSmoke(t *testing.T) {
	stage := "start"
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("stage "+stage+": "+format, args...)
	}
	// await polls cond in 10 ms steps; the smoke's only waits are for a
	// document to replicate, a stream to attach and the client to see the
	// drain.
	await := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(3 * time.Second); !cond(); time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				fail("%s: not within 3s", what)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// --- start: the real main(), durable store, group-commit fsync. The
	// announcement ends with the "H2B endpoint" line.
	const drainTimeout = 2 * time.Second
	server, urls := startChild(t, fail, "H2B endpoint", "-iface", "127.0.0.1:0", "-http", "127.0.0.1:0", "-corba", "127.0.0.1:0",
		"-data-dir", t.TempDir(), "-sync", "group", "-drain-timeout", drainTimeout.String())
	h2bEndpoint, rest, _ := strings.Cut(urls["H2B endpoint"], " (mux ")
	h2bMux := strings.TrimSuffix(rest, ")")
	httpBase, _, found := strings.Cut(urls["SOAP endpoint"], "/soap/")
	for _, label := range []string{"WSDL", "SOAP endpoint", "IDL", "IOR", "JSON doc", "JSON endpoint", "H2B doc"} {
		if !strings.HasPrefix(urls[label], "http://") {
			fail("announcement has no %q URL: %v", label, urls)
		}
	}
	if !found || !strings.HasPrefix(h2bEndpoint, "http://") || h2bMux == "" {
		fail("malformed endpoint lines: %v", urls)
	}
	scrape := func() string {
		t.Helper()
		resp, err := http.Get(httpBase + "/metrics")
		if err != nil {
			fail("GET /metrics: %v", err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			fail("GET /metrics: HTTP %d, %v", resp.StatusCode, err)
		}
		return string(body)
	}

	// --- probe
	stage = "probe"
	if m := scrape(); !strings.Contains(m, "livedev_up 1\n") {
		fail("/metrics does not report livedev_up 1:\n%s", m)
	}

	// --- exercise: one Dial call and one stale call per binding. A CDE
	// client never sends a method its view lacks, so the stale call goes
	// through the binding's raw stub.
	stage = "exercise"
	gone := dyn.MethodSig{Name: "gone", Result: dyn.Int32T}
	bindings := []struct {
		class, binding, doc string
		stale               func() error
		isStale             func(error) bool
	}{
		{"Calc", "SOAP", urls["WSDL"], func() error {
			_, err := (&soap.Client{Endpoint: urls["SOAP endpoint"], ServiceNS: "urn:Calc"}).CallContext(ctx, gone.Name, nil, gone.Result)
			return err
		}, soap.IsNonExistentMethod},
		{"CalcCorba", "CORBA", urls["IDL"], func() error {
			doc, err := ifsvr.FetchContext(ctx, nil, urls["IOR"])
			if err != nil {
				return err
			}
			ref, err := ior.ParseString(strings.TrimSpace(doc.Content))
			if err != nil {
				return err
			}
			conn, err := orb.DialIORContext(ctx, ref)
			if err != nil {
				return err
			}
			defer conn.Close()
			_, err = conn.InvokeContext(ctx, gone, nil)
			return err
		}, func(err error) bool { return errors.Is(err, orb.ErrNonExistentMethod) }},
		{"CalcJSON", "JSON", urls["JSON doc"], func() error {
			_, err := (&jsonb.Caller{Endpoint: urls["JSON endpoint"]}).Call(ctx, gone, nil)
			return err
		}, isStaleReply},
		{"CalcH2B", "H2B", urls["H2B doc"], func() error {
			_, err := (&h2b.Caller{Endpoint: h2bEndpoint, Mux: h2bMux}).Call(ctx, gone, nil)
			return err
		}, isStaleReply},
	}
	for _, b := range bindings {
		client, err := livedev.Dial(ctx, b.doc, livedev.WithTimeout(3*time.Second))
		if err != nil {
			fail("%s: Dial %s: %v", b.binding, b.doc, err)
		}
		sum, err := client.CallContext(ctx, "add", livedev.Int32(40), livedev.Int32(2))
		_ = client.Close()
		if err != nil || sum.Int32() != 42 {
			fail("%s: add(40, 2) = %v, %v", b.binding, sum, err)
		}
		if err := b.stale(); !b.isStale(err) {
			fail("%s: call of a method the class never had: %v, want the binding's non-existent-method error", b.binding, err)
		}
	}

	// --- scrape and assert
	stage = "scrape"
	metrics := scrape()
	for _, b := range bindings {
		for _, outcome := range []string{"ok", "stale"} {
			if n, ok := callsTotal(metrics, b.class, b.binding, outcome); !ok || n == 0 {
				fail("livedev_calls_total{class=%q,binding=%q,outcome=%q} = %d (present %v), want it moved:\n%s",
					b.class, b.binding, outcome, n, ok, metrics)
			}
		}
	}
	for _, name := range []string{
		"livedev_endpoint_requests_total", "livedev_store_commits_total", "livedev_store_journal_depth",
		"livedev_watchers", "livedev_wal_fsync_lag", "livedev_wal_fsyncs_total", "livedev_repl_lag",
	} {
		if !regexp.MustCompile(`(?m)^` + name + `[{ ]`).MatchString(metrics) {
			fail("/metrics is missing %s:\n%s", name, metrics)
		}
	}

	// --- follow: a -follow replica of the server. A watch client dialed
	// at the replica reads the leader's document, watches the replica and
	// calls the leader; the replica names its leader on document GETs,
	// refuses writes, reports its role, and stops cleanly on SIGTERM.
	stage = "follow"
	leaderBase, _, _ := strings.Cut(urls["WSDL"], "/wsdl/")
	replica, replicaURLs := startChild(t, fail, "serving", "-follow", leaderBase,
		"-iface", "127.0.0.1:0", "-http", "127.0.0.1:0", "-drain-timeout", drainTimeout.String())
	replicaWSDL := replicaURLs["serving"] + strings.TrimPrefix(urls["WSDL"], leaderBase)
	var named string
	await("the replica to serve the WSDL", func() bool {
		resp, err := http.Get(replicaWSDL)
		if err != nil {
			return false
		}
		_ = resp.Body.Close()
		named = resp.Header.Get(ifsvr.LeaderHeader)
		return resp.StatusCode == http.StatusOK
	})
	if named != leaderBase {
		fail("the replica's GET names leader %q, want %q", named, leaderBase)
	}
	viaReplica, err := livedev.Dial(ctx, replicaWSDL, livedev.WithWatch(), livedev.WithTimeout(3*time.Second))
	if err != nil {
		fail("Dial %s WithWatch: %v", replicaWSDL, err)
	}
	sum, err := viaReplica.CallContext(ctx, "add", livedev.Int32(40), livedev.Int32(2))
	_ = viaReplica.Close()
	if err != nil || sum.Int32() != 42 {
		fail("add(40, 2) dialed at the replica = %v, %v", sum, err)
	}
	resp, err := http.Post(replicaWSDL, "text/xml", strings.NewReader("<definitions/>"))
	if err != nil {
		fail("POST to the replica: %v", err)
	}
	_ = resp.Body.Close()
	if loc := resp.Header.Get("Location"); resp.StatusCode != http.StatusMisdirectedRequest || !strings.HasPrefix(loc, leaderBase) {
		fail("POST to the replica: HTTP %d, Location %q; want 421 naming %s", resp.StatusCode, loc, leaderBase)
	}
	resp, err = http.Get(replicaURLs["serving"] + ifsvr.StatsPath)
	if err != nil {
		fail("GET %s: %v", ifsvr.StatsPath, err)
	}
	var stats ifsvr.StoreStats
	err = json.NewDecoder(resp.Body).Decode(&stats)
	_ = resp.Body.Close()
	if err != nil || stats.Replication == nil || stats.Replication.Role != "follower" {
		fail("the replica's %s: %v, replication %+v; want role follower", ifsvr.StatsPath, err, stats.Replication)
	}
	if err := replica.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		fail("%v", err)
	}
	if clean, err := replica.wait(fail, drainTimeout+3*time.Second); err != nil || !clean {
		fail("Wait: %v, printed \"shut down cleanly\": %v", err, clean)
	}

	// --- SIGTERM with a watch client attached.
	stage = "sigterm"
	watcher, err := livedev.Dial(ctx, urls["WSDL"], livedev.WithWatch())
	if err != nil {
		fail("Dial WithWatch: %v", err)
	}
	defer watcher.Close()
	await("the watch stream to be held by the server", func() bool {
		return strings.Contains(scrape(), "livedev_watchers 1\n")
	})
	signalled := time.Now()
	if err := server.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		fail("%v", err)
	}
	await("the watch client to see the terminal draining frame", func() bool { return watcher.Stats().Drains > 0 })
	clean, err := server.wait(fail, drainTimeout+3*time.Second)
	if took := time.Since(signalled); err != nil || !clean || took > drainTimeout {
		fail("Wait: %v, %v after SIGTERM (drain timeout %v), printed \"shut down cleanly\": %v", err, took.Round(time.Millisecond), drainTimeout, clean)
	}
}
