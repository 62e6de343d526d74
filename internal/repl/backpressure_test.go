package repl_test

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strings"
	"syscall"
	"testing"
	"time"

	"livedev/internal/ifsvr"
)

// sockoptControl returns a net.ListenConfig/net.Dialer Control hook that
// sets one SOL_SOCKET buffer option before bind/connect. As in the watch
// plane's torture test, both ends pin their socket buffers before the
// handshake so the stall does not depend on how much TCP autotuning lets
// loopback absorb.
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

// startPinnedLeader is startLeader on a listener whose accepted
// connections carry a 16KB send buffer, with the given held-stream
// heartbeat and write deadline.
func startPinnedLeader(t *testing.T, cfg ifsvr.StoreConfig, heartbeat, writeTimeout time.Duration) (*ifsvr.Store, string) {
	t.Helper()
	st, err := ifsvr.OpenStore(cfg)
	if err != nil {
		t.Fatalf("opening leader store: %v", err)
	}
	srv := ifsvr.NewView(st)
	srv.HeartbeatInterval = heartbeat
	srv.StreamWriteTimeout = writeTimeout
	lc := net.ListenConfig{Control: sockoptControl(syscall.SO_SNDBUF, 16<<10)}
	ln, err := lc.Listen(context.Background(), "tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("starting leader: %v", err)
	}
	hs := &http.Server{Handler: srv}
	go func() { _ = hs.Serve(ln) }()
	t.Cleanup(func() {
		_ = hs.Close()
		st.Close()
	})
	return st, "http://" + ln.Addr().String()
}

// dialStalledTail opens a raw all-paths stream request and never reads
// the response — a frozen replication peer with a 4KB receive buffer.
func dialStalledTail(t *testing.T, base string) net.Conn {
	t.Helper()
	u, err := url.Parse(base)
	if err != nil {
		t.Fatal(err)
	}
	d := net.Dialer{Control: sockoptControl(syscall.SO_RCVBUF, 4<<10)}
	conn, err := d.Dial("tcp", u.Host)
	if err != nil {
		t.Fatal(err)
	}
	req := fmt.Sprintf("GET %s?watch=stream&after=0 HTTP/1.1\r\nHost: %s\r\n\r\n", ifsvr.AllPath, u.Host)
	if _, err := conn.Write([]byte(req)); err != nil {
		_ = conn.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// TestTailStalledClientEvictedFollowerUnaffected mirrors the watch-plane
// stall torture on the replication plane: a real follower and a stalled
// raw all-paths client share the leader. The publish storm must evict the
// stalled stream via the write deadline — counted in the leader's
// ReplicationStats.Evictions, not in Fanout — while the follower rides
// the same storm out and converges on every byte.
func TestTailStalledClientEvictedFollowerUnaffected(t *testing.T) {
	// The journal must outlast the storm so the follower replays it
	// without ever needing a snapshot reset.
	st, base := startPinnedLeader(t, ifsvr.StoreConfig{HistoryLen: 8192}, 100*time.Millisecond, 300*time.Millisecond)

	f := openFollower(t, base, ifsvr.StoreConfig{})
	defer f.Close()

	const path = "/doc/stall"
	pad := strings.Repeat("x", 8<<10)
	st.Publish(path, "text/plain", "seed-"+pad)
	waitConverged(t, st, f.Store())

	_ = dialStalledTail(t, base)
	// Let the leader accept the stalled stream before the storm.
	time.Sleep(100 * time.Millisecond)

	// The storm: publish until the write deadline evicts the stalled
	// stream. The cap bounds a broken valve; with the pinned buffers the
	// stream's write blocks after the first few events.
	const maxEdits = 3000
	edits := 0
	deadline := time.Now().Add(90 * time.Second)
	for {
		if rs := st.Stats().Replication; rs != nil && rs.Evictions > 0 {
			break
		}
		if edits >= maxEdits || time.Now().After(deadline) {
			t.Fatalf("stalled stream never evicted (%d edits)", edits)
		}
		edits++
		st.Publish(path, "text/plain", fmt.Sprintf("content-%d-%s", edits, pad))
		time.Sleep(time.Millisecond)
	}

	// The follower was never the evicted party: it converges on the
	// post-storm state and its stream kept applying events throughout.
	st.Publish(path, "text/plain", "final-"+pad)
	waitConverged(t, st, f.Store())
	rs := f.Store().Stats().Replication
	if rs == nil || rs.Role != "follower" || rs.Records == 0 {
		t.Fatalf("follower Replication block = %+v", rs)
	}
	if fs := st.Stats().Fanout; fs.Evictions != 0 || fs.Watchers != 0 {
		t.Fatalf("all-paths streams counted in the leader's Fanout block: %+v", fs)
	}
}
