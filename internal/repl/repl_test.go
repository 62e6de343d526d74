package repl_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"livedev/internal/ifsvr"
	"livedev/internal/repl"
)

// startLeader builds a leader: a store opened with cfg (its HistoryLen is
// the followers' lag budget) and its Interface Server view.
func startLeader(t *testing.T, cfg ifsvr.StoreConfig) (*ifsvr.Store, string) {
	t.Helper()
	st, err := ifsvr.OpenStore(cfg)
	if err != nil {
		t.Fatalf("opening leader store: %v", err)
	}
	srv := ifsvr.NewView(st)
	base, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("starting leader: %v", err)
	}
	t.Cleanup(func() {
		_ = srv.Close()
		st.Close()
	})
	return st, base
}

// waitConverged blocks until every follower store holds every leader
// path at (at least) the leader's version, then asserts content, epoch,
// and descriptor version match exactly.
func waitConverged(t *testing.T, leader *ifsvr.Store, followers ...*ifsvr.Store) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for _, path := range leader.Paths() {
		want, err := leader.Get(path)
		if err != nil {
			t.Fatalf("leader lost %s: %v", path, err)
		}
		for i, f := range followers {
			for {
				got, err := f.Get(path)
				if err == nil && got.Version >= want.Version {
					if got != want {
						t.Fatalf("follower %d diverged on %s:\n got %+v\nwant %+v", i, path, got, want)
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("follower %d never converged on %s (leader v%d)", i, path, want.Version)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
}

func openFollower(t *testing.T, leader string, storeCfg ifsvr.StoreConfig) *repl.Follower {
	t.Helper()
	f, err := repl.OpenFollower(repl.FollowerConfig{Leader: leader, Store: storeCfg, RetryDelay: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("opening follower: %v", err)
	}
	return f
}

// TestReplicationSmoke is the CI convergence smoke: a leader plus two
// followers, a few publishes and a retirement, everyone converges, the
// followers serve the leader's generation over HTTP, and a write to a
// follower is misdirected (421) to the leader.
func TestReplicationSmoke(t *testing.T) {
	st, base := startLeader(t, ifsvr.StoreConfig{})

	f1 := openFollower(t, base, ifsvr.StoreConfig{})
	defer f1.Close()
	f2 := openFollower(t, base, ifsvr.StoreConfig{})
	defer f2.Close()
	f1URL, err := f1.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serving follower: %v", err)
	}

	for i := 0; i < 20; i++ {
		st.Publish(fmt.Sprintf("/doc/%d", i%5), "text/plain", fmt.Sprintf("content-%d", i))
	}
	st.Remove("/doc/4")
	waitConverged(t, st, f1.Store(), f2.Store())

	// The retirement replicated too.
	awaitRemoved(t, "/doc/4", f1.Store(), f2.Store())

	// Satellite fix: followers serve X-Store-Generation derived from the
	// LEADER's generation, not their own restart counter.
	doc, err := ifsvr.FetchContext(context.Background(), nil, f1URL+"/doc/1")
	if err != nil {
		t.Fatalf("fetching from follower: %v", err)
	}
	if doc.Generation != st.Generation() {
		t.Fatalf("follower served generation %d, want the leader's %d", doc.Generation, st.Generation())
	}

	// Publications to a follower are misdirected to the leader.
	resp, err := http.Post(f1URL+"/doc/1", "text/plain", strings.NewReader("nope"))
	if err != nil {
		t.Fatalf("posting to follower: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("publish to follower: HTTP %d, want %d", resp.StatusCode, http.StatusMisdirectedRequest)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, base) {
		t.Fatalf("misdirect Location = %q, want leader %q", loc, base)
	}
	// And the follower's own store drops local publishes.
	if v := f1.Store().Publish("/doc/1", "text/plain", "local write"); v != 0 {
		t.Fatalf("read-only follower store accepted a publish (v%d)", v)
	}

	// Replication stats blocks carry the roles.
	if rs := st.Stats().Replication; rs == nil || rs.Role != "leader" {
		t.Fatalf("leader Replication block = %+v", rs)
	}
	rs := f1.Store().Stats().Replication
	if rs == nil || rs.Role != "follower" || rs.Generation != st.Generation() {
		t.Fatalf("follower Replication block = %+v", rs)
	}
	if rs.Records == 0 {
		t.Fatalf("follower applied no records: %+v", rs)
	}
}

func awaitRemoved(t *testing.T, path string, stores ...*ifsvr.Store) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for _, st := range stores {
		for {
			if _, err := st.Get(path); err != nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never retired on follower", path)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// TestFollowerRestartResumes kills a durable follower mid-stream and
// restarts it over the same data dir: it must resume from its durable
// epoch with zero missed and zero duplicated versions across the two
// incarnations.
func TestFollowerRestartResumes(t *testing.T) {
	st, base := startLeader(t, ifsvr.StoreConfig{HistoryLen: 100000})
	dir := t.TempDir()

	const paths = 4
	const versionsPerPath = 120
	pathOf := func(i int) string { return fmt.Sprintf("/storm/%d", i) }

	type seenEvent struct {
		path    string
		version uint64
	}
	var seenMu sync.Mutex
	var seen []seenEvent
	record := func(op ifsvr.StoreOp) {
		seenMu.Lock()
		for _, ev := range op.Events {
			seen = append(seen, seenEvent{ev.Path, ev.Doc.Version})
		}
		seenMu.Unlock()
	}

	f := openFollower(t, base, ifsvr.StoreConfig{Dir: dir})
	f.Store().Subscribe(record)

	// Storm while the follower follows.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := 0; v < versionsPerPath; v++ {
			for p := 0; p < paths; p++ {
				st.Publish(pathOf(p), "text/plain", fmt.Sprintf("v%d", v))
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Let some of the storm replicate, then kill the follower mid-stream.
	// The subscription rides until Close: everything applied is recorded.
	time.Sleep(15 * time.Millisecond)
	f.Close()

	<-done // leader finishes the storm while the follower is down

	// Restart over the same dir: the stream resumes from the durable
	// cursor. OpenFollower returns with the stream connected, so it is
	// held until the subscription records what it carries.
	tr := &holdingTransport{RoundTripper: http.DefaultTransport.(*http.Transport).Clone()}
	tr.hold()
	f2, err := repl.OpenFollower(repl.FollowerConfig{Leader: base, Store: ifsvr.StoreConfig{Dir: dir},
		HTTPClient: &http.Client{Transport: tr}, RetryDelay: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("reopening follower: %v", err)
	}
	defer f2.Close()
	f2.Store().Subscribe(record)
	tr.release()
	waitConverged(t, st, f2.Store())

	// Zero miss, zero dup: per path, the two incarnations together fanned
	// out every version exactly once, in order.
	seenMu.Lock()
	defer seenMu.Unlock()
	next := make(map[string]uint64)
	for p := 0; p < paths; p++ {
		next[pathOf(p)] = 1
	}
	for _, ev := range seen {
		if ev.version != next[ev.path] {
			t.Fatalf("%s: fanned out v%d, want v%d (dup or miss across restart)", ev.path, ev.version, next[ev.path])
		}
		next[ev.path]++
	}
	for p := 0; p < paths; p++ {
		if got := next[pathOf(p)] - 1; got != versionsPerPath {
			t.Fatalf("%s: fanned out %d versions, want %d", pathOf(p), got, versionsPerPath)
		}
	}
	if rs := f2.Store().Stats().Replication; rs == nil || rs.Bootstraps != 0 {
		t.Fatalf("restart should resume by replay, not bootstrap: %+v", rs)
	}
}

// TestLeaderCompactionBootstrap forces the snapshot-reset path: the
// leader's journal is tiny, the follower connects after far more commits
// than the journal holds, so its cursor is below the floor and the leader
// answers with its current state before live events.
func TestLeaderCompactionBootstrap(t *testing.T) {
	st, base := startLeader(t, ifsvr.StoreConfig{HistoryLen: 4})

	for i := 0; i < 200; i++ {
		st.Publish(fmt.Sprintf("/doc/%d", i%8), "text/plain", fmt.Sprintf("content-%d", i))
	}
	st.Remove("/doc/7")

	f := openFollower(t, base, ifsvr.StoreConfig{})
	defer f.Close()
	waitConverged(t, st, f.Store())
	awaitRemoved(t, "/doc/7", f.Store())

	rs := f.Store().Stats().Replication
	if rs == nil || rs.Bootstraps == 0 {
		t.Fatalf("follower should have bootstrapped: %+v", rs)
	}
	// Live events flow after the bootstrap.
	st.Publish("/doc/0", "text/plain", "after-bootstrap")
	waitConverged(t, st, f.Store())
}

// corruptingProxy proxies the leader, replacing the data line of the
// first all-paths stream's nth event with one that does not decode —
// once. The follower must refuse the event, reconnect (through the now
// clean proxy), and re-fetch from its last applied epoch.
func corruptingProxy(t *testing.T, leader string, nth int) *httptest.Server {
	t.Helper()
	var corrupted atomic.Bool
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, leader+r.URL.RequestURI(), nil)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer func() { _ = resp.Body.Close() }()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		fl := w.(http.Flusher)
		fl.Flush()
		corrupt := corrupted.CompareAndSwap(false, true)
		br := bufio.NewReader(resp.Body)
		for data := 0; ; {
			line, err := br.ReadString('\n')
			if strings.HasPrefix(line, "data:") {
				if data++; corrupt && data == nth {
					line = "data: {\"path\":\n"
				}
			}
			if _, werr := io.WriteString(w, line); werr != nil || err != nil {
				return
			}
			fl.Flush()
		}
	}))
	t.Cleanup(proxy.Close)
	return proxy
}

// TestUndecodableEventRefetched serves the follower a "data:" line that
// does not decode and asserts the follower refuses it, reconnects,
// re-fetches, and still converges byte-exactly.
func TestUndecodableEventRefetched(t *testing.T) {
	st, base := startLeader(t, ifsvr.StoreConfig{HistoryLen: 100000})
	proxy := corruptingProxy(t, base, 10)
	f := openFollower(t, proxy.URL, ifsvr.StoreConfig{})
	defer f.Close()
	for i := 0; i < 40; i++ {
		st.Publish("/doc/a", "text/plain", fmt.Sprintf("content-%d", i))
	}

	waitConverged(t, st, f.Store())
	rs := f.Store().Stats().Replication
	if rs == nil || rs.FrameErrors == 0 {
		t.Fatalf("expected a refused event: %+v", rs)
	}
	if rs.Reconnects == 0 {
		t.Fatalf("expected a reconnect after the refused event: %+v", rs)
	}
	var lev, fev []ifsvr.StoreEvent
	lev, _ = st.ReplayEventsInto("/doc/a", 0, lev)
	fev, _ = f.Store().ReplayEventsInto("/doc/a", 0, fev)
	if len(fev) != len(lev) {
		t.Fatalf("follower journal holds %d versions, leader %d", len(fev), len(lev))
	}
	for i := range lev {
		if !bytes.Equal(fev[i].Payload, lev[i].Payload) {
			t.Fatalf("version %d differs:\n leader   %s\n follower %s", i+1, lev[i].Payload, fev[i].Payload)
		}
	}
}

// TestEditStormByteIdentical runs a concurrent edit storm on the leader
// (race-enabled in CI) and asserts every epoch's fanned-out event bytes
// are identical on leader and follower.
func TestEditStormByteIdentical(t *testing.T) {
	st, base := startLeader(t, ifsvr.StoreConfig{HistoryLen: 100000})

	collect := func(st *ifsvr.Store) (*sync.Mutex, map[uint64][]string) {
		mu := &sync.Mutex{}
		m := make(map[uint64][]string)
		st.Subscribe(func(op ifsvr.StoreOp) {
			mu.Lock()
			for _, ev := range op.Events {
				m[ev.Doc.Epoch] = append(m[ev.Doc.Epoch], string(ev.Payload))
			}
			mu.Unlock()
		})
		return mu, m
	}
	lmu, leaderEvents := collect(st)

	f := openFollower(t, base, ifsvr.StoreConfig{})
	defer f.Close()
	fmu, followerEvents := collect(f.Store())

	const writers = 4
	const editsPerWriter = 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < editsPerWriter; i++ {
				st.Publish(fmt.Sprintf("/storm/%d", w), "text/plain", fmt.Sprintf("w%d-i%d", w, i))
			}
		}(w)
	}
	wg.Wait()
	waitConverged(t, st, f.Store())

	lmu.Lock()
	defer lmu.Unlock()
	fmu.Lock()
	defer fmu.Unlock()
	if len(leaderEvents) != writers*editsPerWriter {
		t.Fatalf("leader fanned out %d epochs, want %d", len(leaderEvents), writers*editsPerWriter)
	}
	for epoch, levs := range leaderEvents {
		fevs := followerEvents[epoch]
		if len(fevs) != len(levs) {
			t.Fatalf("epoch %d: follower fanned out %d events, leader %d", epoch, len(fevs), len(levs))
		}
		for i := range levs {
			if fevs[i] != levs[i] {
				t.Fatalf("epoch %d event %d: follower bytes differ:\n  leader   %s\n  follower %s",
					epoch, i, levs[i], fevs[i])
			}
		}
	}
}

// TestFollowerWatchStream pins that a held SSE watch on a FOLLOWER sees
// live leader commits — the whole point of the read plane.
func TestFollowerWatchStream(t *testing.T) {
	st, base := startLeader(t, ifsvr.StoreConfig{})
	st.Publish("/doc/w", "text/plain", "v1")

	f := openFollower(t, base, ifsvr.StoreConfig{})
	defer f.Close()
	fURL, err := f.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serving follower: %v", err)
	}
	waitConverged(t, st, f.Store())

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got := make(chan ifsvr.StreamEvent, 16)
	go func() {
		_ = ifsvr.WatchStream(ctx, nil, fURL+"/doc/w", 0, func(ev ifsvr.StreamEvent) {
			got <- ev
		})
	}()

	// First the replayed/current v1, then a live v2 published on the
	// LEADER must arrive over the follower's stream.
	ev := <-got
	if ev.Doc.Version != 1 {
		t.Fatalf("first stream event v%d, want v1", ev.Doc.Version)
	}
	st.Publish("/doc/w", "text/plain", "v2")
	select {
	case ev = <-got:
		if ev.Doc.Version != 2 || ev.Doc.Content != "v2" {
			t.Fatalf("live event = %+v, want v2", ev.Doc)
		}
	case <-ctx.Done():
		t.Fatal("live leader commit never reached the follower's SSE stream")
	}
}

// swappableFront fronts a replaceable leader handler behind one stable
// URL — a stand-in for a leader process restarting behind its address.
// Swapping the handler does NOT break held connections (neither does a
// reverse proxy); callers use CloseClientConnections on the fronting
// httptest server to simulate the TCP teardown of a real process death.
type swappableFront struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swappableFront) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	if h == nil {
		http.Error(w, "leader down", http.StatusBadGateway)
		return
	}
	h.ServeHTTP(w, r)
}

func (s *swappableFront) swap(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// leaderBehind mounts a leader (st's Interface Server view) on a swappable
// front instead of its own listener.
func leaderBehind(sw *swappableFront, st *ifsvr.Store) {
	sw.swap(ifsvr.NewView(st))
}

func awaitResets(t *testing.T, f *repl.Follower, want uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		rs := f.Store().Stats().Replication
		if rs != nil && rs.Resets >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never reset (want >= %d): %+v", want, rs)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLeaderStateLossReset: the leader dies losing all state, and a new
// one (new generation, fresh low versions) comes up at the same address.
// The follower must detect the generation change on its next stream, wipe
// its stale state, re-bootstrap,
// and converge on the new incarnation — not silently keep serving the
// dead one while its version filter swallows every new commit.
func TestLeaderStateLossReset(t *testing.T) {
	sw := &swappableFront{}
	front := httptest.NewServer(sw)
	t.Cleanup(front.Close)

	st1 := ifsvr.NewStore(0, nil)
	t.Cleanup(st1.Close)
	leaderBehind(sw, st1)
	for i := 0; i < 5; i++ {
		st1.Publish("/doc/a", "text/plain", fmt.Sprintf("old-%d", i))
	}
	st1.Publish("/old/only", "text/plain", "stale")

	f := openFollower(t, front.URL, ifsvr.StoreConfig{})
	defer f.Close()
	fURL, err := f.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serving follower: %v", err)
	}
	f.Iface().HeartbeatInterval = 20 * time.Millisecond
	waitConverged(t, st1, f.Store())

	// A held SSE watch on the follower, to be cut loose by the reset.
	watchCtx, watchCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer watchCancel()
	watchErr := make(chan error, 1)
	go func() {
		watchErr <- ifsvr.WatchStream(watchCtx, nil, fURL+"/doc/a", 0, func(ifsvr.StreamEvent) {})
	}()

	// The leader dies with total state loss; its replacement has one low
	// version of /doc/a and a brand-new path.
	st2 := ifsvr.NewStore(0, nil)
	t.Cleanup(st2.Close)
	st2.Publish("/doc/a", "text/plain", "fresh")
	st2.Publish("/new/only", "text/plain", "born")
	leaderBehind(sw, st2)
	front.CloseClientConnections()

	awaitResets(t, f, 1)
	waitConverged(t, st2, f.Store())
	awaitRemoved(t, "/old/only", f.Store())

	// The new leader's LOW version won, not the dead incarnation's high one.
	got, err := f.Store().Get("/doc/a")
	if err != nil || got.Version != 1 || got.Content != "fresh" {
		t.Fatalf("follower /doc/a = %+v, %v; want v1 %q", got, err, "fresh")
	}
	if g := f.Store().Generation(); g != st2.Generation() {
		t.Fatalf("follower generation %d, want the new leader's %d", g, st2.Generation())
	}
	rs := f.Store().Stats().Replication
	if rs == nil || rs.Generation != st2.Generation() || rs.Resets == 0 {
		t.Fatalf("follower Replication block after reset = %+v", rs)
	}

	// The held stream ended (the follower's restart signal to watchers):
	// the client reconnects and reads the new generation.
	select {
	case err := <-watchErr:
		if err == nil {
			t.Fatal("watch stream returned nil, want a broken-stream error")
		}
	case <-watchCtx.Done():
		t.Fatal("held SSE stream survived the generation reset")
	}
	doc, err := ifsvr.FetchContext(context.Background(), nil, fURL+"/doc/a")
	if err != nil || doc.Generation != st2.Generation() {
		t.Fatalf("post-reset fetch = %+v, %v; want generation %d", doc, err, st2.Generation())
	}
}

// TestLeaderRestartDurableRehandshake restarts a DURABLE leader over its
// data dir: the generation bumps (every open does), and the follower must
// notice it on its next stream, reset and re-bootstrap — converging on
// the preserved state with its original versions intact.
func TestLeaderRestartDurableRehandshake(t *testing.T) {
	sw := &swappableFront{}
	front := httptest.NewServer(sw)
	t.Cleanup(front.Close)
	dir := t.TempDir()

	st1, err := ifsvr.OpenStore(ifsvr.StoreConfig{Dir: dir})
	if err != nil {
		t.Fatalf("opening leader store: %v", err)
	}
	leaderBehind(sw, st1)
	for i := 0; i < 3; i++ {
		st1.Publish("/doc/d", "text/plain", fmt.Sprintf("v%d", i+1))
	}
	st1.Publish("/doc/e", "text/plain", "only")

	f := openFollower(t, front.URL, ifsvr.StoreConfig{})
	defer f.Close()
	waitConverged(t, st1, f.Store())

	// Clean restart of the leader process over the same dir.
	sw.swap(nil)
	st1.Close()
	front.CloseClientConnections()
	st2, err := ifsvr.OpenStore(ifsvr.StoreConfig{Dir: dir})
	if err != nil {
		t.Fatalf("reopening leader store: %v", err)
	}
	t.Cleanup(st2.Close)
	if st2.Generation() == st1.Generation() {
		t.Fatalf("reopen did not bump the generation (%d)", st2.Generation())
	}
	leaderBehind(sw, st2)

	awaitResets(t, f, 1)
	waitConverged(t, st2, f.Store())
	got, err := f.Store().Get("/doc/d")
	if err != nil || got.Version != 3 {
		t.Fatalf("follower /doc/d = %+v, %v; want the durable v3", got, err)
	}
	rs := f.Store().Stats().Replication
	if rs == nil || rs.Generation != st2.Generation() || rs.Bootstraps == 0 {
		t.Fatalf("durable restart should re-bootstrap under the new generation: %+v", rs)
	}

	// Post-restart commits keep flowing.
	st2.Publish("/doc/d", "text/plain", "v4")
	waitConverged(t, st2, f.Store())
}

// TestRestartedLeaderFirstConnectConverges: a follower's first connect to
// a durable leader restarted over state it committed in an earlier
// incarnation — documents, a retired floor — converges byte for byte, and
// live events flow after it.
func TestRestartedLeaderFirstConnectConverges(t *testing.T) {
	dir := t.TempDir()
	st0, err := ifsvr.OpenStore(ifsvr.StoreConfig{Dir: dir})
	if err != nil {
		t.Fatalf("opening leader store: %v", err)
	}
	for i := 0; i < 10; i++ {
		st0.Publish(fmt.Sprintf("/pre/%d", i%3), "text/plain", fmt.Sprintf("v%d", i))
	}
	st0.Publish("/pre/gone", "text/plain", "short-lived")
	st0.Remove("/pre/gone")
	st0.Close()
	st, base := startLeader(t, ifsvr.StoreConfig{Dir: dir})

	f := openFollower(t, base, ifsvr.StoreConfig{})
	defer f.Close()
	waitConverged(t, st, f.Store())
	sameBytes := func() {
		t.Helper()
		leader, follower := st.CloneState(), f.Store().CloneState()
		for path, ev := range leader.Docs {
			if !bytes.Equal(follower.Docs[path].Payload, ev.Payload) {
				t.Fatalf("%s: follower bytes differ:\n leader   %s\n follower %s", path, ev.Payload, follower.Docs[path].Payload)
			}
		}
		if len(follower.Docs) != len(leader.Docs) {
			t.Fatalf("follower holds %d documents, leader %d", len(follower.Docs), len(leader.Docs))
		}
		if v := follower.Retired["/pre/gone"]; v != 1 {
			t.Fatalf("follower's retired floor for /pre/gone = %d, want 1", v)
		}
	}
	sameBytes()
	st.Publish("/pre/0", "text/plain", "live")
	waitConverged(t, st, f.Store())
	sameBytes()
}
