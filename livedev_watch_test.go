package livedev_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"livedev"
	"livedev/internal/cde"
)

// startEchoServer deploys a one-method class under a fresh manager and
// returns the server plus the class. The long stability timeout keeps the
// timer-driven publication path out of the way, so the tests below observe
// exactly the forced-publication + watch interplay they target.
func startEchoServer(t *testing.T, tech livedev.Technology, cfg livedev.Config) (livedev.Server, *livedev.Class) {
	t.Helper()
	mgr, err := livedev.NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = mgr.Close() })
	class := livedev.NewClass("WatchEcho")
	if _, err := class.AddMethod(livedev.MethodSpec{
		Name:        "echo",
		Params:      []livedev.Param{{Name: "s", Type: livedev.StringType}},
		Result:      livedev.StringType,
		Distributed: true,
		Body: func(_ *livedev.Instance, args []livedev.Value) (livedev.Value, error) {
			return args[0], nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	srv, err := mgr.Register(class, tech)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	return srv, class
}

// TestWatchStaleCallServedFromCache: a watch-subscribed client resolves a
// stale call with zero per-call document refetches, on every binding. The
// reply carries the document, so the client waits neither for a fetch nor
// for the push, which arrives later and installs nothing new.
func TestWatchStaleCallServedFromCache(t *testing.T) {
	for _, tech := range []livedev.Technology{livedev.TechSOAP, livedev.TechCORBA} {
		t.Run(string(tech), func(t *testing.T) {
			srv, class := startEchoServer(t, tech, livedev.Config{Timeout: 10 * time.Second})
			ctx := context.Background()
			client, err := livedev.Dial(ctx, srv.InterfaceURL(), livedev.WithWatch())
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = client.Close() }()
			baseRefreshes := client.Stats().Refreshes

			// Live edit; the 10s stability timeout means nothing publishes
			// until the stale call forces it.
			id, _ := class.MethodIDByName("echo")
			if err := class.RenameMethod(id, "echo2"); err != nil {
				t.Fatal(err)
			}

			_, err = client.CallContext(ctx, "echo", livedev.Str("x"))
			if !errors.Is(err, livedev.ErrStaleMethod) {
				t.Fatalf("stale call: %v", err)
			}
			if _, ok := client.Interface().Lookup("echo2"); !ok {
				t.Fatal("view must show the rename after the stale call")
			}
			st := client.Stats()
			if st.Refreshes != baseRefreshes {
				t.Errorf("stale call refetched the document %d times; its reply should have carried it",
					st.Refreshes-baseRefreshes)
			}
			got, err := client.CallContext(ctx, "echo2", livedev.Str("y"))
			if err != nil || got.Str() != "y" {
				t.Errorf("post-refresh call = %v, %v", got, err)
			}
		})
	}
}

// TestWatchTimerPublicationPushes: the regular (stable-timeout) publication
// path also reaches watch-subscribed clients, with no client polling.
func TestWatchTimerPublicationPushes(t *testing.T) {
	srv, class := startEchoServer(t, livedev.TechSOAP, livedev.Config{Timeout: 20 * time.Millisecond})
	ctx := context.Background()
	client, err := livedev.Dial(ctx, srv.InterfaceURL(), livedev.WithWatch())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()

	id, _ := class.MethodIDByName("echo")
	if err := class.RenameMethod(id, "renamed"); err != nil {
		t.Fatal(err)
	}
	srv.Publisher().PublishNow()
	srv.Publisher().WaitIdle()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := client.Interface().Lookup("renamed"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("push did not reach the watch-subscribed client")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if client.Stats().WatchUpdates == 0 {
		t.Error("update should have arrived via watch")
	}
}

// TestWatchConcurrentSubscribeUnsubscribe races watch-subscribed clients
// connecting, receiving pushes, and closing against a stream of live edits
// — run under -race. The surviving clients must converge on the final
// interface.
func TestWatchConcurrentSubscribeUnsubscribe(t *testing.T) {
	srv, class := startEchoServer(t, livedev.TechSOAP, livedev.Config{Timeout: 5 * time.Millisecond})
	ctx := context.Background()

	const clients = 6
	var wg sync.WaitGroup
	survivors := make([]*livedev.Client, clients/2)

	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := livedev.Dial(ctx, srv.InterfaceURL(), livedev.WithWatch())
			if err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 {
				// Half the clients churn: subscribe, let a few pushes land,
				// unsubscribe mid-storm.
				time.Sleep(time.Duration(5+i) * time.Millisecond)
				_ = c.Close()
				return
			}
			survivors[i/2] = c
		}(i)
	}

	// The edit storm runs while clients churn.
	id, _ := class.MethodIDByName("echo")
	name := "echo"
	for i := 0; i < 30; i++ {
		next := fmt.Sprintf("m%02d", i)
		if err := class.RenameMethod(id, next); err != nil {
			t.Fatal(err)
		}
		name = next
		time.Sleep(2 * time.Millisecond)
	}
	srv.Publisher().PublishNow()
	srv.Publisher().WaitIdle()
	wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for _, c := range survivors {
		if c == nil {
			continue
		}
		for {
			if _, ok := c.Interface().Lookup(name); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("a surviving client never converged on %s", name)
			}
			time.Sleep(5 * time.Millisecond)
		}
		_ = c.Close()
	}
}

// TestIIOPConnectionPoolSharing: two CORBA Dials against the same published
// IOR multiplex one pooled IIOP connection; the connection survives the
// first Close and is torn down by the last.
func TestIIOPConnectionPoolSharing(t *testing.T) {
	srv, _ := startEchoServer(t, livedev.TechCORBA, livedev.Config{Timeout: time.Second})
	ctx := context.Background()

	conns0, refs0 := cde.IIOPPoolStats()
	c1, err := livedev.Dial(ctx, srv.InterfaceURL())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := livedev.Dial(ctx, srv.InterfaceURL())
	if err != nil {
		t.Fatal(err)
	}
	conns, refs := cde.IIOPPoolStats()
	if conns != conns0+1 || refs != refs0+2 {
		t.Errorf("pool after two dials: %d conns (+%d), %d refs (+%d); want +1/+2",
			conns, conns-conns0, refs, refs-refs0)
	}

	// Both clients call over the shared connection.
	for _, c := range []*livedev.Client{c1, c2} {
		if got, err := c.CallContext(ctx, "echo", livedev.Str("hi")); err != nil || got.Str() != "hi" {
			t.Fatalf("pooled call = %v, %v", got, err)
		}
	}

	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := c2.CallContext(ctx, "echo", livedev.Str("still up")); err != nil || got.Str() != "still up" {
		t.Fatalf("call after sibling close = %v, %v", got, err)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	conns, refs = cde.IIOPPoolStats()
	if conns != conns0 || refs != refs0 {
		t.Errorf("pool after both closes: %d conns, %d refs; want %d/%d", conns, refs, conns0, refs0)
	}
}

// TestIIOPPoolEvictsBrokenConnection: when the server behind a pooled
// connection goes away, the next Dial must not inherit the dead socket —
// the pool evicts it and reconnects.
func TestIIOPPoolEvictsBrokenConnection(t *testing.T) {
	mgr, err := livedev.NewManager(livedev.Config{Timeout: time.Second, CORBAAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mgr.Close() }()
	class := livedev.NewClass("Evict")
	if _, err := class.AddMethod(livedev.MethodSpec{
		Name: "ping", Result: livedev.StringType, Distributed: true,
		Body: func(*livedev.Instance, []livedev.Value) (livedev.Value, error) {
			return livedev.Str("pong"), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	srv, err := mgr.Register(class, livedev.TechCORBA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	iorURL := srv.InterfaceURL() // IDL; IOR derived by convention

	c1, err := livedev.Dial(ctx, iorURL)
	if err != nil {
		t.Fatal(err)
	}
	// Hold c1 open while the manager (and its ORB) shuts down, killing the
	// pooled connection under it.
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.CallContext(ctx, "ping"); err == nil {
		t.Fatal("call over a dead pooled connection should fail")
	}

	// A fresh server on a new manager; c1 still holds the broken entry.
	mgr2, err := livedev.NewManager(livedev.Config{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mgr2.Close() }()
	class2 := livedev.NewClass("Evict")
	if _, err := class2.AddMethod(livedev.MethodSpec{
		Name: "ping", Result: livedev.StringType, Distributed: true,
		Body: func(*livedev.Instance, []livedev.Value) (livedev.Value, error) {
			return livedev.Str("pong2"), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	srv2, err := mgr2.Register(class2, livedev.TechCORBA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv2.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	c2, err := livedev.Dial(ctx, srv2.InterfaceURL())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c2.Close() }()
	got, err := c2.CallContext(ctx, "ping")
	if err != nil || got.Str() != "pong2" {
		t.Fatalf("dial after server restart = %v, %v", got, err)
	}
	_ = c1.Close()
}

// TestWatchRidesStreamTransportAllBindings pins the transport choice: a
// WithWatch client against our own servers holds one SSE stream (per-commit
// events, zero refetches) on every registered binding — the long-poll path
// remains only a fallback for servers without the streaming endpoint.
func TestWatchRidesStreamTransportAllBindings(t *testing.T) {
	livedev.RegisterBinding(livedev.JSONBinding())
	for _, tech := range []livedev.Technology{livedev.TechSOAP, livedev.TechCORBA, livedev.Technology("JSON")} {
		t.Run(string(tech), func(t *testing.T) {
			srv, class := startEchoServer(t, tech, livedev.Config{Timeout: time.Millisecond})
			ctx := context.Background()
			client, err := livedev.Dial(ctx, srv.InterfaceURL(), livedev.WithWatch())
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = client.Close() }()

			id, _ := class.MethodIDByName("echo")
			if err := class.RenameMethod(id, "echoed"); err != nil {
				t.Fatal(err)
			}
			srv.Publisher().PublishNow()
			srv.Publisher().WaitIdle()

			deadline := time.Now().Add(5 * time.Second)
			for {
				if _, ok := client.Interface().Lookup("echoed"); ok {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("watch client did not converge on the edit")
				}
				time.Sleep(2 * time.Millisecond)
			}
			st := client.Stats()
			if st.StreamEvents == 0 {
				t.Errorf("stats = %+v: the update should have arrived over the streaming transport", st)
			}
			if st.Refreshes != 1 {
				t.Errorf("stats = %+v: only the initial fetch should have hit the document endpoint", st)
			}
		})
	}
}
