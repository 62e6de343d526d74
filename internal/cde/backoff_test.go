package cde

import (
	"context"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"livedev/internal/core"
	"livedev/internal/dyn"
)

// countingTransport counts round trips — every dial a reconnecting
// watcher makes shows up here, connection-refused included.
type countingTransport struct {
	n atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return http.DefaultTransport.RoundTrip(req)
}

// TestDeadEndpointDialsArePaced is the reconnect-storm regression test: N
// watch clients whose server dies must make O(log) dials per second —
// capped jittered exponential backoff — not spin hot through failover. A
// hot loop here produces tens of thousands of dials in the window; backoff
// produces a handful per client.
func TestDeadEndpointDialsArePaced(t *testing.T) {
	mgr, err := core.NewManager(core.Config{Timeout: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	class := dyn.NewClass("Paced")
	if _, err := class.AddMethod(dyn.MethodSpec{Name: "op", Result: dyn.Int32T, Distributed: true}); err != nil {
		t.Fatal(err)
	}
	srv, err := mgr.Register(class, core.TechSOAP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}

	const clients = 5
	tr := &countingTransport{}
	hc := &http.Client{Transport: tr}
	var conns []*Client
	for i := 0; i < clients; i++ {
		c, err := Dial(context.Background(), srv.InterfaceURL(), &DialOptions{Watch: true, HTTPClient: hc})
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}()

	// Kill the server: every endpoint the watchers know is now dead.
	if err := mgr.Close(); err != nil {
		t.Fatalf("closing manager: %v", err)
	}

	// Let the immediate post-drain reconnects (deliberately unpaced: the
	// drain frame says "go now") fail once, then measure the steady state.
	time.Sleep(300 * time.Millisecond)
	tr.n.Store(0)
	const window = 2500 * time.Millisecond
	time.Sleep(window)
	dials := tr.n.Load()

	// 5 clients × exponential ladder (≈4 attempts each in 2.5s at the
	// 200ms base) plus jitter: anything near double digits is healthy;
	// a hot spin would be >10k. The bound is loose on purpose — it fails
	// only if backoff is gone, not on scheduler noise.
	if dials == 0 {
		t.Fatal("no reconnect attempts at all — watchers gave up instead of backing off")
	}
	if perSec := float64(dials) / window.Seconds(); perSec > 40 {
		t.Fatalf("%d dials in %s (%.0f/s) against a dead endpoint — reconnects are not backed off", dials, window, perSec)
	}

	var backoffs uint64
	for _, c := range conns {
		backoffs += c.Stats().Backoffs
	}
	if backoffs == 0 {
		t.Fatal("ClientStats.Backoffs never moved while reconnecting against a dead endpoint")
	}
	t.Logf("dials in window: %d, backoff waits: %d", dials, backoffs)
}

// TestBackoffResetsOnRecovery: once the endpoint is healthy again the next
// failure streak starts from the base delay, not the accumulated cap —
// success resets the ladder.
func TestBackoffResetsOnRecovery(t *testing.T) {
	var src DocSource
	src.bo.Base = 10 * time.Millisecond
	src.bo.Cap = 100 * time.Millisecond
	for i := 0; i < 10; i++ {
		src.bo.Fail()
	}
	if d := src.bo.Delay(); d < 50*time.Millisecond {
		t.Fatalf("after 10 failures delay = %v, want at least half the cap", d)
	}
	src.bo.Reset()
	if d := src.bo.Delay(); d != 0 {
		t.Fatalf("after reset delay = %v, want 0", d)
	}
	src.bo.Fail()
	if d := src.bo.Delay(); d > 10*time.Millisecond {
		t.Fatalf("first post-reset failure delay = %v, want within the base", d)
	}
}

// TestFailedReadsArePaced: reads go to the leader and never rotate across
// the replica endpoints, so a read that follows a failed one waits out the
// backoff, however many endpoints the source lists.
func TestFailedReadsArePaced(t *testing.T) {
	src := NewDocSource("http://127.0.0.1:1/x.wsdl", nil, nil)
	src.SetEndpoints([]string{"http://127.0.0.1:1", "http://127.0.0.1:2", "http://127.0.0.1:3"})
	src.bo.Base = time.Millisecond
	for i, want := range []uint64{0, 1} {
		if _, err := src.Fetch(context.Background()); err == nil {
			t.Fatal("a read from a dead endpoint succeeded")
		}
		if got := src.Backoffs(); got != want {
			t.Errorf("after failed read %d: %d backoff waits, want %d", i+1, got, want)
		}
	}
}
