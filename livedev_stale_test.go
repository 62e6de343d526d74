package livedev_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"livedev"
	"livedev/internal/cde"
	"livedev/internal/ifsvr"
	"livedev/internal/repl"
)

// docGets counts the document GETs a client sends (held watch streams
// aside); calls that ride the same HTTP client are POSTs and do not count.
type docGets struct {
	http.RoundTripper
	n atomic.Int64
}

func (g *docGets) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodGet && !strings.Contains(req.URL.RawQuery, "watch=stream") {
		g.n.Add(1)
	}
	return g.RoundTripper.RoundTrip(req)
}

var staleTechs = []livedev.Technology{livedev.TechSOAP, livedev.TechCORBA, "JSON", "H2B"}

// TestStaleRecoveryFetchesNoDocument: on every binding, with a watcher and
// without, a stale call's recovery sends no request for the document — the
// reply carried it — and the view it installs is exactly what the Interface
// Server serves at reply time. Under the ActivePublishingOnly ablation the
// reply carries nothing, and the recovery fetches once, as before.
func TestStaleRecoveryFetchesNoDocument(t *testing.T) {
	livedev.RegisterBinding(livedev.JSONBinding())
	livedev.RegisterBinding(livedev.H2BBinding())
	ctx := context.Background()
	for _, tech := range staleTechs {
		for _, watch := range []bool{false, true} {
			for _, ablation := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/watch=%v/ablation=%v", tech, watch, ablation), func(t *testing.T) {
					srv, class := startEchoServer(t, tech, livedev.Config{Timeout: time.Hour, ActivePublishingOnly: ablation})
					gets := &docGets{RoundTripper: http.DefaultTransport}
					opts := []livedev.Option{livedev.WithHTTPClient(&http.Client{Transport: gets})}
					if watch {
						opts = append(opts, livedev.WithWatch())
					}
					client, err := livedev.Dial(ctx, srv.InterfaceURL(), opts...)
					if err != nil {
						t.Fatal(err)
					}
					defer func() { _ = client.Close() }()

					id, _ := class.MethodIDByName("echo")
					if err := class.RenameMethod(id, "echo2"); err != nil {
						t.Fatal(err)
					}
					before := gets.n.Load()
					if _, err := client.CallContext(ctx, "echo", livedev.Str("x")); !errors.Is(err, livedev.ErrStaleMethod) {
						t.Fatalf("stale call: %v", err)
					}
					fetched := gets.n.Load() - before
					if ablation {
						if fetched != 1 {
							t.Errorf("the ablation's recovery sent %d document requests, want the one fetch", fetched)
						}
						return
					}
					if fetched != 0 {
						t.Errorf("the recovery sent %d document requests, want none", fetched)
					}
					published, err := ifsvr.FetchContext(ctx, nil, srv.InterfaceURL())
					if err != nil {
						t.Fatal(err)
					}
					want := cde.DocVersions{Doc: published.Version, Descriptor: published.DescriptorVersion,
						Epoch: published.Epoch, Generation: published.Generation}
					if got := client.Versions(); got != want {
						t.Errorf("installed view %+v, the Interface Server serves %+v", got, want)
					}
					if _, ok := client.Interface().Lookup("echo2"); !ok {
						t.Error("the installed view lacks the rename")
					}
				})
			}
		}
	}
}

// heldTail is a follower's tail transport that can be held: while held,
// what a read of a tail body returns is kept back until release — a read
// already waiting on the network when the hold begins included — so the
// leader's commits do not reach the follower.
type heldTail struct {
	http.RoundTripper
	mu   sync.Mutex
	held chan struct{}
}

func (h *heldTail) hold() {
	h.mu.Lock()
	h.held = make(chan struct{})
	h.mu.Unlock()
}

func (h *heldTail) release() {
	h.mu.Lock()
	if h.held != nil {
		close(h.held)
		h.held = nil
	}
	h.mu.Unlock()
}

func (h *heldTail) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := h.RoundTripper.RoundTrip(req)
	if err == nil && req.URL.Query().Has("after") {
		resp.Body = &heldBody{ReadCloser: resp.Body, h: h}
	}
	return resp, err
}

type heldBody struct {
	io.ReadCloser
	h *heldTail
}

func (b *heldBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.h.mu.Lock()
	held := b.h.held
	b.h.mu.Unlock()
	if held != nil {
		<-held
	}
	return n, err
}

// TestStaleRecencyAcrossReplicas is Section 6's guarantee with a replica in
// the way: a watcher-less client reads its documents from a follower whose
// tail is held, so the follower never sees the leader's forced publication.
// After a rename and a stale call, on every binding, the client's view
// still has the new name, an epoch at least the leader's at reply time, and
// a descriptor version at least the refusing interface's — the reply
// carried the leader's document, where a fetch would have read the lagging
// follower's.
func TestStaleRecencyAcrossReplicas(t *testing.T) {
	livedev.RegisterBinding(livedev.JSONBinding())
	livedev.RegisterBinding(livedev.H2BBinding())
	ctx := context.Background()
	leader, err := livedev.NewManager(livedev.Config{Timeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = leader.Close() }()
	classes := make(map[livedev.Technology]*livedev.Class)
	urls := make(map[livedev.Technology]string)
	for _, tech := range staleTechs {
		class := livedev.NewClass("Replicated" + string(tech))
		if _, err := class.AddMethod(livedev.MethodSpec{
			Name: "echo", Params: []livedev.Param{{Name: "s", Type: livedev.StringType}}, Result: livedev.StringType, Distributed: true,
			Body: func(_ *livedev.Instance, args []livedev.Value) (livedev.Value, error) { return args[0], nil },
		}); err != nil {
			t.Fatal(err)
		}
		srv, err := leader.Register(class, tech)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.CreateInstance(); err != nil {
			t.Fatal(err)
		}
		classes[tech], urls[tech] = class, srv.InterfaceURL()
	}

	tail := &heldTail{RoundTripper: http.DefaultTransport.(*http.Transport).Clone()}
	f, err := repl.OpenFollower(repl.FollowerConfig{
		Leader:     leader.InterfaceBaseURL(),
		HTTPClient: &http.Client{Transport: tail},
		RetryDelay: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	defer tail.release()
	followerBase, err := f.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	onFollower := func(url string) string {
		return followerBase + strings.TrimPrefix(url, leader.InterfaceBaseURL())
	}
	// Every binding's documents (the IOR too) on the follower before the hold.
	deadline := time.Now().Add(10 * time.Second)
	for _, path := range leader.Store().Paths() {
		want, _ := leader.Store().Get(path)
		for {
			got, err := f.Store().Get(path)
			if err == nil && got.Version >= want.Version {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("the follower never caught up on %s", path)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	clients := make(map[livedev.Technology]*livedev.Client)
	for _, tech := range staleTechs {
		c, err := livedev.Dial(ctx, onFollower(urls[tech]))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		clients[tech] = c
	}

	tail.hold()
	for _, tech := range staleTechs {
		t.Run(string(tech), func(t *testing.T) {
			class, c := classes[tech], clients[tech]
			id, _ := class.MethodIDByName("echo")
			if err := class.RenameMethod(id, "echo2"); err != nil {
				t.Fatal(err)
			}
			refusing := class.InterfaceVersion()
			_, err := c.CallContext(ctx, "echo", livedev.Str("x"))
			leaderEpoch := leader.Store().Epoch()
			var stale *livedev.StaleMethodError
			if !errors.As(err, &stale) {
				t.Fatalf("stale call: %v", err)
			}
			if _, ok := c.Interface().Lookup("echo2"); !ok {
				t.Error("the installed view lacks the rename: it came from the lagging follower")
			}
			if got := c.Versions().Epoch; got < leaderEpoch {
				t.Errorf("installed epoch %d, the leader's at reply time %d", got, leaderEpoch)
			}
			if stale.RefreshedDescriptorVersion < refusing {
				t.Errorf("RefreshedDescriptorVersion %d, the refusing interface's %d", stale.RefreshedDescriptorVersion, refusing)
			}
			if doc, err := f.Store().Get(strings.TrimPrefix(urls[tech], leader.InterfaceBaseURL())); err != nil || strings.Contains(doc.Content, "echo2") {
				t.Errorf("the follower was not held: it already serves the rename (%v)", err)
			}
		})
	}
}

// TestExplicitReadsGoToLeader is the monotonic-reads rule for explicit
// reads: a client dialed at a follower whose tail is held, with the
// follower and the leader as its endpoints, reads its documents from the
// leader the follower names. On every binding Dial and a later Refresh
// install renames the follower never saw, while the client's watch stream
// stays on the follower.
func TestExplicitReadsGoToLeader(t *testing.T) {
	livedev.RegisterBinding(livedev.JSONBinding())
	livedev.RegisterBinding(livedev.H2BBinding())
	ctx := context.Background()
	leader, err := livedev.NewManager(livedev.Config{Timeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = leader.Close() }()
	servers := make(map[livedev.Technology]livedev.Server)
	for _, tech := range staleTechs {
		class := livedev.NewClass("Read" + string(tech))
		if _, err := class.AddMethod(livedev.MethodSpec{
			Name: "echo", Params: []livedev.Param{{Name: "s", Type: livedev.StringType}}, Result: livedev.StringType, Distributed: true,
			Body: func(_ *livedev.Instance, args []livedev.Value) (livedev.Value, error) { return args[0], nil },
		}); err != nil {
			t.Fatal(err)
		}
		srv, err := leader.Register(class, tech)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.CreateInstance(); err != nil {
			t.Fatal(err)
		}
		servers[tech] = srv
	}

	tail := &heldTail{RoundTripper: http.DefaultTransport.(*http.Transport).Clone()}
	f, err := repl.OpenFollower(repl.FollowerConfig{
		Leader:     leader.InterfaceBaseURL(),
		HTTPClient: &http.Client{Transport: tail},
		RetryDelay: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	defer tail.release()
	followerBase, err := f.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	await := func(t *testing.T, what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: not within 10s", what)
			}
		}
	}
	// Every binding's documents (the IOR too) on the follower before the hold.
	for _, path := range leader.Store().Paths() {
		want, _ := leader.Store().Get(path)
		await(t, "the follower to replicate "+path, func() bool {
			got, err := f.Store().Get(path)
			return err == nil && got.Version >= want.Version
		})
	}

	tail.hold()
	leaderWatchers := leader.Store().Stats().Fanout.Watchers
	for _, tech := range staleTechs {
		t.Run(string(tech), func(t *testing.T) {
			srv := servers[tech]
			rename := func(from, to string) {
				id, _ := srv.Class().MethodIDByName(from)
				if err := srv.Class().RenameMethod(id, to); err != nil {
					t.Fatal(err)
				}
				srv.Publisher().PublishNow()
				srv.Publisher().WaitIdle()
			}
			rename("echo", "echo2")
			c, err := livedev.Dial(ctx, followerBase+strings.TrimPrefix(srv.InterfaceURL(), leader.InterfaceBaseURL()),
				livedev.WithEndpoints(followerBase, leader.InterfaceBaseURL()), livedev.WithWatch())
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = c.Close() }()
			if _, ok := c.Interface().Lookup("echo2"); !ok {
				t.Error("Dial installed the lagging follower's view")
			}

			rename("echo2", "echo3")
			if err := c.Refresh(); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Interface().Lookup("echo3"); !ok {
				t.Error("Refresh installed the lagging follower's view")
			}
			if got, err := c.CallContext(ctx, "echo3", livedev.Str("x")); err != nil || got.Str() != "x" {
				t.Errorf("echo3 after Refresh = %v, %v", got, err)
			}

			await(t, "the watch stream to attach to the follower", func() bool {
				return f.Store().Stats().Fanout.Watchers >= 1
			})
			if n := leader.Store().Stats().Fanout.Watchers; n != leaderWatchers {
				t.Errorf("the leader holds %d watch streams, %d before the client: the stream left the follower", n, leaderWatchers)
			}
		})
	}
}
