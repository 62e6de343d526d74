package ifsvr

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The store's one registry of held streams: commits wake the paths they
// touched and every all-paths stream, and the heartbeat tick walks the same
// registry while it holds anything.

// TestCommitWakesItsPathAndAllPaths: a commit to /a wakes /a's watchers and
// every all-paths stream, and no watcher of /b. Fanout counts /a's wakes
// only; the all-paths streams are the leader's tails.
func TestCommitWakesItsPathAndAllPaths(t *testing.T) {
	st := NewStore(0, nil)
	t.Cleanup(st.Close)
	chans := map[string][]chan struct{}{
		"/a":    make([]chan struct{}, 2),
		"/b":    make([]chan struct{}, 1),
		AllPath: make([]chan struct{}, 3),
	}
	for path, cs := range chans {
		for i := range cs {
			cs[i] = make(chan struct{}, 1)
			t.Cleanup(st.watchPath(path, cs[i]))
		}
	}
	stats := st.Stats()
	if stats.Fanout.Watchers != 3 || stats.Replication.Tails != 3 {
		t.Fatalf("Watchers %d, Tails %d; want 3 and 3", stats.Fanout.Watchers, stats.Replication.Tails)
	}
	st.PublishVersioned("/a", "text/xml", "<a/>", 1)
	for path, want := range map[string]int{"/a": 1, "/b": 0, AllPath: 1} {
		for i, ch := range chans[path] {
			if len(ch) != want {
				t.Errorf("watcher %d of %s holds %d wakes, want %d", i, path, len(ch), want)
			}
		}
	}
	if got := st.Stats().Fanout.Wakes - stats.Fanout.Wakes; got != 2 {
		t.Errorf("Fanout.Wakes grew by %d, want 2 (the watchers of /a)", got)
	}
}

// holdStream opens a streaming watch of path on url and returns its line
// reader; the stream ends with the test or at cancel.
func holdStream(t *testing.T, ctx context.Context, url, path string) *bufio.Reader {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+path+"?watch=stream&after=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return bufio.NewReader(resp.Body)
}

// readHeartbeat reads br until an SSE heartbeat comment.
func readHeartbeat(t *testing.T, br *bufio.Reader, what string) {
	t.Helper()
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("%s: no heartbeat before %v", what, err)
		}
		if strings.TrimSpace(line) == ": hb" {
			return
		}
	}
}

func (s *Store) tickRunning() bool {
	s.watchers.mu.Lock()
	defer s.watchers.mu.Unlock()
	return s.watchers.ticking
}

// TestHeartbeatsWithoutStart: a Server mounted as a plain http.Handler,
// never started, still sends heartbeats on a per-path and an all-paths
// stream.
func TestHeartbeatsWithoutStart(t *testing.T) {
	st := NewStore(0, nil)
	t.Cleanup(st.Close)
	srv := NewView(st)
	srv.HeartbeatInterval = 10 * time.Millisecond
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	st.PublishVersioned("/wsdl/S.wsdl", "text/xml", "<v1/>", 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, path := range []string{"/wsdl/S.wsdl", AllPath} {
		readHeartbeat(t, holdStream(t, ctx, hs.URL, path), path)
	}
}

// TestHeartbeatTickFollowsStreams: the tick starts with the first held
// stream, stops at the first tick after the last one closed, and starts
// again with the next.
func TestHeartbeatTickFollowsStreams(t *testing.T) {
	st := NewStore(0, nil)
	t.Cleanup(st.Close)
	srv := NewView(st)
	srv.HeartbeatInterval = 2 * time.Millisecond
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	if st.tickRunning() {
		t.Fatal("the tick runs before any stream was held")
	}
	for round := range 2 {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		readHeartbeat(t, holdStream(t, ctx, hs.URL, AllPath), "all-paths stream")
		if !st.tickRunning() {
			t.Fatalf("round %d: a stream is held and the tick does not run", round)
		}
		cancel()
		deadline := time.Now().Add(10 * time.Second)
		for st.tickRunning() {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: the tick still runs 10s after the last stream closed (%d tails)", round, st.Stats().Replication.Tails)
			}
			runtime.Gosched()
		}
		if tails := st.Stats().Replication.Tails; tails != 0 {
			t.Fatalf("round %d: the tick stopped with %d streams held", round, tails)
		}
	}
}
