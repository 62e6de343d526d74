package cde

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/ifsvr"
)

// connCensus counts a server's connections where they cannot be miscounted:
// at the server, through http.Server.ConnState.
type connCensus struct {
	mu             sync.Mutex
	opened, closed int
}

func (c *connCensus) hook(_ net.Conn, st http.ConnState) {
	c.mu.Lock()
	switch st {
	case http.StateNew:
		c.opened++
	case http.StateClosed, http.StateHijacked:
		c.closed++
	}
	c.mu.Unlock()
}

func (c *connCensus) counts() (opened, closed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.opened, c.closed
}

// serveCounted fronts h with a listener whose connections census counts.
func serveCounted(t *testing.T, h http.Handler) (baseURL string, census *connCensus) {
	t.Helper()
	census = &connCensus{}
	ts := httptest.NewUnstartedServer(h)
	ts.Config.ConnState = census.hook
	ts.Start()
	t.Cleanup(ts.Close)
	return ts.URL, census
}

// TestRefreshesReuseOneDocConn pins that every document fetch of one client
// — the dial and explicit refreshes — travels on one HTTP/1.1 keep-alive
// connection of the shared document transport, and that stale-call
// recoveries (Section 5.7) add no fetch at all: their replies carry the
// document.
func TestRefreshesReuseOneDocConn(t *testing.T) {
	mgr, err := core.NewManager(core.Config{Timeout: time.Hour}) // only a stale call publishes
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mgr.Close() }()
	class := dyn.NewClass("Reuse")
	id, err := class.AddMethod(dyn.MethodSpec{
		Name: "op0", Result: dyn.Int32T, Distributed: true,
		Body: func(*dyn.Instance, []dyn.Value) (dyn.Value, error) { return dyn.Int32Value(7), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := mgr.Register(class, core.TechSOAP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}

	// The manager's own Interface Server behind a counted listener: calls
	// still go to the endpoint the WSDL names, documents come through here.
	base, census := serveCounted(t, mgr.InterfaceServer())
	docURL, err := url.Parse(srv.InterfaceURL())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c, err := Dial(ctx, base+docURL.Path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	const rounds = 50
	for i := 0; i < rounds; i++ {
		if err := c.RefreshContext(ctx); err != nil {
			t.Fatalf("refresh %d: %v", i, err)
		}
	}
	for i := 1; i <= rounds; i++ {
		old, renamed := fmt.Sprintf("op%d", i-1), fmt.Sprintf("op%d", i)
		if err := class.RenameMethod(id, renamed); err != nil {
			t.Fatal(err)
		}
		var stale *StaleMethodError
		if _, err := c.CallContext(ctx, old); !errors.As(err, &stale) {
			t.Fatalf("stale call %d: want StaleMethodError, got %v", i, err)
		}
		if _, ok := c.Interface().Lookup(renamed); !ok {
			t.Fatalf("stale call %d: the recovered view lacks %s", i, renamed)
		}
	}
	if st := c.Stats(); st.Refreshes != rounds+1 || st.StaleFaults != rounds {
		t.Fatalf("stats = %+v: want %d document fetches (the dial and the refreshes) and %d stale faults", st, rounds+1, rounds)
	}
	if opened, _ := census.counts(); opened != 1 {
		t.Errorf("%d refreshes and %d stale-call recoveries opened %d document connections, want exactly 1", rounds, rounds, opened)
	}
}

// TestWatchStreamsHoldAndReleaseConns pins what a held stream costs on
// HTTP/1.1 and that the cost is returned: N concurrent watch streams from
// one process are all served (replay, then a live commit), and once their
// contexts end the server sees every one of their connections closed.
func TestWatchStreamsHoldAndReleaseConns(t *testing.T) {
	store := ifsvr.NewStore(0, nil)
	defer store.Close()
	store.Publish("/if/conns.json", "application/json", `{"v":1}`)
	base, census := serveCounted(t, ifsvr.NewView(store))
	docURL := base + "/if/conns.json"

	const watchers = 64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	replayed := make(chan struct{}, watchers)
	live := make(chan struct{}, watchers)
	for i := 0; i < watchers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// after=0 with one committed version: the journal replays it
			// at once, so a replay event means connected and served.
			_ = ifsvr.WatchStream(ctx, docClient(nil), docURL, 0, func(ev ifsvr.StreamEvent) {
				if ev.Replayed {
					replayed <- struct{}{}
				} else {
					live <- struct{}{}
				}
			})
		}()
	}
	await := func(ch <-chan struct{}, what string) {
		t.Helper()
		timeout := time.After(10 * time.Second)
		for i := 0; i < watchers; i++ {
			select {
			case <-ch:
			case <-timeout:
				t.Fatalf("only %d of %d watch streams delivered %s", i, watchers, what)
			}
		}
	}
	await(replayed, "their replay event")
	store.Publish("/if/conns.json", "application/json", `{"v":2}`)
	await(live, "the live commit")

	if opened, _ := census.counts(); opened != watchers {
		t.Errorf("%d held streams opened %d connections, want one each", watchers, opened)
	}
	cancel()
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for {
		opened, closed := census.counts()
		if closed == opened {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("socket leak: %d of %d stream connections still open after their contexts ended", opened-closed, opened)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
