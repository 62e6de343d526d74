package ifsvr

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// The backpressure torture suite: one misbehaving stream client must cost
// exactly one connection — never the commit path, never the other
// watchers. These tests run race-enabled in CI.

// The raw-client tests must not depend on how much a TCP connection
// happens to buffer: autotuning lets loopback absorb megabytes, and what a
// stalled-then-resumed receiver is fed afterwards is kernel-version
// business. Both ends therefore pin their socket buffers before the
// handshake (so the window scale is negotiated small too): the server's
// accepted connections inherit the listener's send buffer, the raw client
// sets its receive buffer in the dialer. A stalled peer then parks the
// pump after a few dozen KB, and draining the connection takes
// milliseconds.
const (
	pinnedSendBuffer    = 16 << 10
	pinnedReceiveBuffer = 4 << 10
)

// sockoptControl returns a net.ListenConfig/net.Dialer Control hook that
// sets one SOL_SOCKET buffer option before bind/connect.
func sockoptControl(opt, bytes int) func(network, address string, c syscall.RawConn) error {
	return func(_, _ string, c syscall.RawConn) error {
		var serr error
		if err := c.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, opt, bytes)
		}); err != nil {
			return err
		}
		return serr
	}
}

// startBackpressureServer builds a store (its journal retaining historyLen
// versions) + view with the given valve settings applied before serving,
// on a listener whose accepted connections carry the pinned send buffer.
func startBackpressureServer(t *testing.T, historyLen int, tune func(*Server)) (*Store, string) {
	t.Helper()
	st, err := OpenStore(StoreConfig{HistoryLen: historyLen})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewView(st)
	if tune != nil {
		tune(srv)
	}
	lc := net.ListenConfig{Control: sockoptControl(syscall.SO_SNDBUF, pinnedSendBuffer)}
	ln, err := lc.Listen(context.Background(), "tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv}
	go func() { _ = hs.Serve(ln) }()
	t.Cleanup(func() {
		st.Close()
		_ = hs.Close()
	})
	return st, "http://" + ln.Addr().String()
}

// dialRawStream opens a raw SSE request and returns the connection
// without ever reading the response: the caller decides whether to stall
// completely or trickle-read. "Connection: close" makes the end of the
// response a real EOF instead of an idle keep-alive connection.
func dialRawStream(t *testing.T, base, path string) net.Conn {
	t.Helper()
	u, err := url.Parse(base)
	if err != nil {
		t.Fatal(err)
	}
	d := net.Dialer{Control: sockoptControl(syscall.SO_RCVBUF, pinnedReceiveBuffer)}
	conn, err := d.Dial("tcp", u.Host)
	if err != nil {
		t.Fatal(err)
	}
	req := fmt.Sprintf("GET %s?watch=stream&after=0 HTTP/1.1\r\nHost: %s\r\nAccept: text/event-stream\r\nConnection: close\r\n\r\n", path, u.Host)
	if _, err := conn.Write([]byte(req)); err != nil {
		_ = conn.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// paddedContent renders a version's document body at roughly size bytes,
// so the storm moves real payload through the sockets.
func paddedContent(v uint64, size int) string {
	head := fmt.Sprintf("<v%d>", v)
	tail := fmt.Sprintf("</v%d>", v)
	if size <= len(head)+len(tail) {
		return fmt.Sprintf("<v%d/>", v)
	}
	return head + strings.Repeat("x", size-len(head)-len(tail)) + tail
}

// eventDigest compresses one observed event to a comparable fingerprint
// (the contents are kilobytes; a map of full payloads per watcher per
// epoch would dominate the test's memory).
func eventDigest(version, dv, epoch uint64, ctype, content string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(ctype))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(content))
	return fmt.Sprintf("v%d|dv%d|e%d|%d|%x", version, dv, epoch, len(content), h.Sum64())
}

// TestStreamStalledWatcherEvictedOthersUnaffected is the stalled-client
// torture: N healthy watchers hold streams while one raw connection
// completes the SSE request and never reads a byte. The publish storm
// must (a) evict the stalled stream via the write deadline — counted in
// Fanout.Evictions, because the client is still connected when its write
// misses the budget — and (b) leave every healthy watcher untouched:
// each observes every committed epoch exactly once, byte-identical to
// the committed content. Under the old push-per-commit fan-out the
// stalled socket would have pinned the shared delivery goroutine and
// starved all N.
func TestStreamStalledWatcherEvictedOthersUnaffected(t *testing.T) {
	watchers := 25
	if testing.Short() {
		watchers = 8
	}
	const payload = 8 << 10
	// The journal must retain the whole storm: with no journal eviction, a
	// missing epoch in a healthy watcher's record is a real delivery miss,
	// not a legitimate snapshot reset.
	st, base := startBackpressureServer(t, 4096, func(srv *Server) {
		srv.HeartbeatInterval = 100 * time.Millisecond
		srv.StreamWriteTimeout = 300 * time.Millisecond
	})
	const path = "/wsdl/S.wsdl"
	streamURL := base + path
	st.PublishVersioned(path, "text/xml", paddedContent(1, payload), 1)

	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = watchers + 4
	hc := &http.Client{Transport: tr}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup

	type obs struct {
		mu     sync.Mutex
		events map[uint64]string
	}
	all := make([]obs, watchers)
	for w := 0; w < watchers; w++ {
		all[w].events = make(map[uint64]string)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				_ = WatchStream(ctx, hc, streamURL, 0, func(ev StreamEvent) {
					key := eventDigest(ev.Doc.Version, ev.Doc.DescriptorVersion, ev.Doc.Epoch, ev.Doc.ContentType, ev.Doc.Content)
					all[w].mu.Lock()
					if prev, dup := all[w].events[ev.Doc.Epoch]; dup && prev != key {
						t.Errorf("watcher %d: epoch %d delivered twice with different payloads:\n%s\n%s", w, ev.Doc.Epoch, prev, key)
					}
					all[w].events[ev.Doc.Epoch] = key
					all[w].mu.Unlock()
				})
			}
		}(w)
	}

	waitEpoch := func(epoch uint64, patience time.Duration) {
		t.Helper()
		deadline := time.Now().Add(patience)
		for w := 0; w < watchers; w++ {
			for {
				all[w].mu.Lock()
				_, ok := all[w].events[epoch]
				all[w].mu.Unlock()
				if ok {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("watcher %d never observed epoch %d", w, epoch)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	// Every healthy watcher is attached (saw the seed) before the stall.
	waitEpoch(1, 30*time.Second)

	stalled := dialRawStream(t, base, path)
	// Let the server accept the stalled stream before the storm.
	time.Sleep(100 * time.Millisecond)

	// The storm: publish until the write deadline evicts the stalled
	// stream. The cap bounds a broken valve; with the pinned buffers the
	// pump's write blocks after the first few events.
	const maxEdits = 3000
	version := uint64(1)
	deadline := time.Now().Add(90 * time.Second)
	for st.Stats().Fanout.Evictions == 0 {
		if version-1 >= maxEdits || time.Now().After(deadline) {
			t.Fatalf("stalled stream never evicted (%d edits, evictions=%d)", version-1, st.Stats().Fanout.Evictions)
		}
		version++
		st.PublishVersioned(path, "text/xml", paddedContent(version, payload), version)
		time.Sleep(time.Millisecond)
	}

	// The eviction closed the stalled connection: draining what the
	// kernel absorbed must hit EOF or a reset, not an open stream.
	_ = stalled.SetReadDeadline(time.Now().Add(30 * time.Second))
	drain := make([]byte, 64<<10)
	for {
		_, err := stalled.Read(drain)
		if err == nil {
			continue
		}
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("stalled connection still open 30s after the eviction was counted")
		}
		break
	}

	// One marker edit after the eviction, then full convergence.
	version++
	st.PublishVersioned(path, "text/xml", paddedContent(version, payload), version)
	waitEpoch(version, 60*time.Second)
	cancel()
	wg.Wait()

	// Zero miss, zero dup, byte-identical: every healthy watcher observed
	// every epoch (the journal retained them all, so a gap is a lost
	// delivery), and each observation matches the committed content.
	for epoch := uint64(1); epoch <= version; epoch++ {
		want := eventDigest(epoch, epoch, epoch, "text/xml", paddedContent(epoch, payload))
		for w := 0; w < watchers; w++ {
			all[w].mu.Lock()
			got, ok := all[w].events[epoch]
			all[w].mu.Unlock()
			if !ok {
				t.Fatalf("watcher %d missed epoch %d (stall leaked into a healthy stream)", w, epoch)
			}
			if got != want {
				t.Fatalf("watcher %d epoch %d observed %s, want %s", w, epoch, got, want)
			}
		}
	}
}

// TestStreamMaxWatcherLagEvictsLaggard exercises the lag valve in
// isolation: the write deadline is disabled, so the pump simply blocks
// while its client reads nothing and the whole storm piles up behind the
// cursor. When the client comes back (reading at full speed — every
// socket write now completes, so the deadline valve could never have
// fired even if armed), the pump's first collect sees a backlog far past
// MaxWatcherLag and must end the stream with the terminal "eviction"
// event rather than replaying the gap.
func TestStreamMaxWatcherLagEvictsLaggard(t *testing.T) {
	const payload = 32 << 10
	// The journal must cover the whole backlog: a cursor below the floor
	// would take the snapshot-reset path, not the lag eviction.
	st, base := startBackpressureServer(t, 8192, func(srv *Server) {
		srv.HeartbeatInterval = time.Second
		srv.StreamWriteTimeout = -1 // disabled: this test is about the lag valve
		srv.MaxWatcherLag = 4
	})
	const path = "/wsdl/S.wsdl"
	st.PublishVersioned(path, "text/xml", paddedContent(1, payload), 1)

	conn := dialRawStream(t, base, path)
	// Let the server accept the stream before the storm.
	time.Sleep(100 * time.Millisecond)

	// The storm lands while the client reads nothing: the pump fills the
	// (pinned, tens-of-KB) socket buffers, blocks, and the rest of the
	// storm — 12.8MB of payload — accumulates as journal backlog behind
	// its cursor, far past the budget.
	version := uint64(1)
	for i := 0; i < 400; i++ {
		version++
		st.PublishVersioned(path, "text/xml", paddedContent(version, payload), version)
		time.Sleep(time.Millisecond)
	}

	// The client comes back: the blocked write completes, the next
	// collect sees the backlog, and the terminal eviction event must
	// arrive before the server hangs up.
	buf := make([]byte, 64<<10)
	var tail []byte
	deadline := time.Now().Add(60 * time.Second)
	sawEviction := false
	for {
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		n, err := conn.Read(buf)
		if n > 0 {
			tail = append(tail, buf[:n]...)
			if bytes.Contains(tail, []byte("event: eviction")) {
				sawEviction = true
			}
			if keep := 64 << 10; len(tail) > keep {
				tail = tail[len(tail)-keep:]
			}
		}
		if err != nil {
			if sawEviction {
				break // terminal event, then the server hung up — as specified
			}
			t.Fatalf("stream ended without the terminal eviction event: %v (evictions=%d)", err, st.Stats().Fanout.Evictions)
		}
		if time.Now().After(deadline) {
			t.Fatalf("laggard never evicted (evictions=%d)", st.Stats().Fanout.Evictions)
		}
	}
	if got := st.Stats().Fanout.Evictions; got == 0 {
		t.Fatal("terminal eviction event seen but Fanout.Evictions = 0")
	}
}
