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
	"livedev/internal/repl"
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
// connections carry a 16KB send buffer.
func startPinnedLeader(t *testing.T, cfg repl.TailConfig) (*ifsvr.Store, string) {
	t.Helper()
	st := ifsvr.NewStore(0, nil)
	srv := ifsvr.NewView(st)
	ts := repl.Attach(st, srv, cfg)
	lc := net.ListenConfig{Control: sockoptControl(syscall.SO_SNDBUF, 16<<10)}
	ln, err := lc.Listen(context.Background(), "tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("starting leader: %v", err)
	}
	hs := &http.Server{Handler: srv}
	go func() { _ = hs.Serve(ln) }()
	t.Cleanup(func() {
		_ = hs.Close()
		ts.Close()
		st.Close()
	})
	return st, "http://" + ln.Addr().String()
}

// dialStalledTail opens a raw WAL-tail request and never reads the
// response — a frozen replication peer with a 4KB receive buffer.
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
	req := fmt.Sprintf("GET %s?after=0 HTTP/1.1\r\nHost: %s\r\n\r\n", repl.TailPath, u.Host)
	if _, err := conn.Write([]byte(req)); err != nil {
		_ = conn.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// TestTailStalledClientEvictedFollowerUnaffected mirrors the watch-plane
// stall torture on the replication plane: a real follower and a stalled
// raw tail client share the leader. The publish storm must evict the
// stalled tail via the write deadline — counted in the leader's
// ReplicationStats.Evictions — while the follower rides the same storm
// out and converges on every byte.
func TestTailStalledClientEvictedFollowerUnaffected(t *testing.T) {
	st, base := startPinnedLeader(t, repl.TailConfig{
		Heartbeat:    100 * time.Millisecond,
		WriteTimeout: 300 * time.Millisecond,
		// The ring must outlast the storm so the follower tails it without
		// ever needing a bootstrap.
		History: 8192,
	})

	f := openFollower(t, base, ifsvr.StoreConfig{})
	defer f.Close()

	const path = "/doc/stall"
	pad := strings.Repeat("x", 8<<10)
	st.Publish(path, "text/plain", "seed-"+pad)
	waitConverged(t, st, f.Store())

	_ = dialStalledTail(t, base)
	// Let the leader accept the stalled tail before the storm.
	time.Sleep(100 * time.Millisecond)

	// The storm: publish until the write deadline evicts the stalled
	// tail. The cap bounds a broken valve; with the pinned buffers the
	// tail's write blocks after the first few records.
	const maxEdits = 3000
	edits := 0
	deadline := time.Now().Add(90 * time.Second)
	for {
		if rs := st.Stats().Replication; rs != nil && rs.Evictions > 0 {
			break
		}
		if edits >= maxEdits || time.Now().After(deadline) {
			t.Fatalf("stalled tail never evicted (%d edits)", edits)
		}
		edits++
		st.Publish(path, "text/plain", fmt.Sprintf("content-%d-%s", edits, pad))
		time.Sleep(time.Millisecond)
	}

	// The follower was never the evicted party: it converges on the
	// post-storm state and its tail kept applying records throughout.
	st.Publish(path, "text/plain", "final-"+pad)
	waitConverged(t, st, f.Store())
	rs := f.Store().Stats().Replication
	if rs == nil || rs.Role != "follower" || rs.Records == 0 {
		t.Fatalf("follower Replication block = %+v", rs)
	}
}
