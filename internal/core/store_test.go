package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"livedev/internal/clock"
	"livedev/internal/dyn"
	"livedev/internal/ifsvr"
)

// TestStoreImmediateWithoutWindow: with no flush window every publish
// commits immediately and fans out, preserving the pre-store behaviour.
func TestStoreImmediateWithoutWindow(t *testing.T) {
	s := ifsvr.NewStore(0, nil)
	var events []ifsvr.StoreEvent
	cancel := s.Subscribe(func(op ifsvr.StoreOp) { events = append(events, op.Events...) })
	defer cancel()

	if v := s.Publish("/p", "text/plain", "a"); v != 1 {
		t.Fatalf("first publish version = %d", v)
	}
	if v := s.PublishVersioned("/p", "text/plain", "b", 7); v != 2 {
		t.Fatalf("second publish version = %d", v)
	}
	d, err := s.Get("/p")
	if err != nil || d.Content != "b" || d.Version != 2 || d.DescriptorVersion != 7 {
		t.Fatalf("doc = %+v, %v", d, err)
	}
	if len(events) != 2 || events[0].Doc.Version != 1 || events[1].Doc.Version != 2 {
		t.Fatalf("events = %+v", events)
	}
	if events[0].Doc.Epoch >= events[1].Doc.Epoch {
		t.Error("epochs must advance per commit batch")
	}
	st := s.Stats()
	if st.Publishes != 2 || st.Commits != 2 || st.Coalesced != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestStoreFirstPublicationCommitsImmediately: even under a flush window,
// a never-published path commits synchronously (Section 4's immediate
// basic definition).
func TestStoreFirstPublicationCommitsImmediately(t *testing.T) {
	clk := clock.NewFake()
	s := ifsvr.NewStore(time.Hour, clk)
	s.Publish("/p", "text/plain", "basic")
	if d, err := s.Get("/p"); err != nil || d.Content != "basic" {
		t.Fatalf("initial doc = %+v, %v", d, err)
	}
}

// TestStoreFlushCommitsSynchronously: Flush is the forced-publication
// path — staged content becomes visible without any timer involvement, and
// the later timer expiry has nothing left to commit.
func TestStoreFlushCommitsSynchronously(t *testing.T) {
	clk := clock.NewFake()
	s := ifsvr.NewStore(time.Minute, clk)
	s.Publish("/p", "text/plain", "v1")
	s.PublishVersioned("/p", "text/plain", "v2", 2)
	if d, _ := s.Get("/p"); d.Content != "v1" {
		t.Fatalf("staged write must not be visible, got %q", d.Content)
	}
	s.Flush()
	d, _ := s.Get("/p")
	if d.Content != "v2" || d.Version != 2 || d.DescriptorVersion != 2 {
		t.Fatalf("after flush: %+v", d)
	}
	clk.Advance(2 * time.Minute)
	if got := s.Stats().Commits; got != 2 {
		t.Errorf("timer after flush must not double-commit: commits = %d", got)
	}
}

// TestStoreCoalescesEditStorm is the acceptance scenario at store level: a
// storm of 100 rapid publications collapses into a bounded number of
// committed versions while a concurrent client converges on the final
// content.
func TestStoreCoalescesEditStorm(t *testing.T) {
	const (
		window  = 100 * time.Millisecond
		spacing = 5 * time.Millisecond
		storm   = 100
	)
	clk := clock.NewFake()
	s := ifsvr.NewStore(window, clk)
	s.Publish("/p", "text/plain", "v0") // initial publication, commits

	// The subscriber is the concurrent client: it counts the storm's
	// commits (counting starts after the initial doc) and reports the one
	// that converges on the storm's final content.
	final := fmt.Sprintf("v%d", storm)
	done := make(chan ifsvr.Document, 1)
	var commits atomic.Int64
	cancel := s.Subscribe(func(op ifsvr.StoreOp) {
		for _, ev := range op.Events {
			if ev.Path != "/p" {
				continue
			}
			commits.Add(1)
			if ev.Doc.Content == final {
				done <- ev.Doc
			}
		}
	})
	defer cancel()

	for i := 1; i <= storm; i++ {
		s.PublishVersioned("/p", "text/plain", fmt.Sprintf("v%d", i), uint64(i))
		clk.Advance(spacing)
	}
	clk.Advance(2 * window) // trailing flush

	select {
	case d := <-done:
		if d.DescriptorVersion != storm {
			t.Errorf("converged on descriptor version %d", d.DescriptorVersion)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("concurrent client did not converge on the final version")
	}
	if got := commits.Load(); got < 1 || got > 5 {
		t.Errorf("storm of %d publications committed %d times, want 1..5", storm, got)
	}
	st := s.Stats()
	if st.Coalesced == 0 {
		t.Error("storm should have coalesced publications")
	}
	if d, _ := s.Get("/p"); d.Content != final {
		t.Errorf("final content = %q", d.Content)
	}
}

// TestStoreEpochsSharedPerBatch: documents committed in one flush batch
// carry the same epoch; separate batches advance it.
func TestStoreEpochsSharedPerBatch(t *testing.T) {
	clk := clock.NewFake()
	s := ifsvr.NewStore(50*time.Millisecond, clk)
	s.Publish("/a", "text/plain", "a0")
	s.Publish("/b", "text/plain", "b0")
	epochAfterInit := s.Epoch()

	s.Publish("/a", "text/plain", "a1")
	s.Publish("/b", "text/plain", "b1")
	s.Flush()
	da, _ := s.Get("/a")
	db, _ := s.Get("/b")
	if da.Epoch != db.Epoch {
		t.Errorf("one batch, two epochs: %d vs %d", da.Epoch, db.Epoch)
	}
	if da.Epoch != epochAfterInit+1 {
		t.Errorf("epoch = %d, want %d", da.Epoch, epochAfterInit+1)
	}
}

// TestStoreWaitUnblocksOnClose: a held stream parked at the head ends when
// the store closes.
func TestStoreWaitUnblocksOnClose(t *testing.T) {
	s := ifsvr.NewStore(0, nil)
	s.Publish("/p", "text/plain", "x")
	view := ifsvr.NewView(s)
	base, err := view.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = view.Close() }()

	replayed := make(chan struct{}, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- ifsvr.WatchStream(context.Background(), nil, base+"/p", 0, func(ifsvr.StreamEvent) {
			replayed <- struct{}{}
		})
	}()
	select {
	case <-replayed: // connected, caught up, parked
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not deliver the replayed document")
	}
	s.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Error("a stream the store closed under ended without an error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("held stream did not end on close")
	}
}

// TestStoreSubscribeUnsubscribeRace hammers publish, flush, subscribe,
// unsubscribe, and held-stream connect/park/hangup concurrently — run
// under -race. Each subscriber checks that the versions it sees per path
// are strictly increasing (delivery preserves commit order).
func TestStoreSubscribeUnsubscribeRace(t *testing.T) {
	s := ifsvr.NewStore(time.Millisecond, clock.Real{})
	paths := []string{"/a", "/b", "/c"}
	for _, p := range paths {
		s.Publish(p, "text/plain", "init")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Publishers.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.PublishVersioned(paths[i%len(paths)], "text/plain", fmt.Sprintf("w%d-%d", w, i), uint64(i))
				if i%17 == 0 {
					s.Flush()
				}
			}
		}(w)
	}

	// Churning subscribers asserting per-path version monotonicity.
	var monotonic atomic.Bool
	monotonic.Store(true)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				last := make(map[string]uint64)
				var mu sync.Mutex
				cancel := s.Subscribe(func(op ifsvr.StoreOp) {
					mu.Lock()
					for _, ev := range op.Events {
						if ev.Doc.Version <= last[ev.Path] {
							monotonic.Store(false)
						}
						last[ev.Path] = ev.Doc.Version
					}
					mu.Unlock()
				})
				time.Sleep(time.Millisecond)
				cancel()
			}
		}()
	}

	// Held streams, each hung up after 10 ms and reconnected past the last
	// epoch it saw: wake registration and cancellation race the commits.
	view := ifsvr.NewView(s)
	base, err := view.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = view.Close() }()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var after uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
				_ = ifsvr.WatchStream(ctx, nil, base+paths[w], after, func(ev ifsvr.StreamEvent) {
					after = ev.Doc.Epoch
				})
				cancel()
			}
		}(w)
	}

	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	s.Close()
	if !monotonic.Load() {
		t.Error("a subscriber observed non-monotone versions for a path")
	}
}

// drainStorePublisher advances virtual time step by step, letting each
// timer expiry's asynchronous generation finish before time moves on (the
// publisher's stability timer may stay armed, so WaitIdle would block).
func drainStorePublisher(clk *clock.Fake, pub *DLPublisher, d time.Duration) {
	step := time.Millisecond
	for d > 0 {
		clk.Advance(step)
		for pub.Busy() {
			runtime.Gosched()
		}
		d -= step
	}
}

// TestManagerEditStormCoalesces is the acceptance scenario end to end: 100
// committed edits against a managed server, each one stable long enough to
// run a full publication, produce at most 5 committed document versions
// through the manager's coalescing store — and a forced publication still
// commits synchronously with the final interface.
func TestManagerEditStormCoalesces(t *testing.T) {
	clk := clock.NewFake()
	mgr, err := NewManager(Config{
		Timeout:     10 * time.Millisecond,
		FlushWindow: 300 * time.Millisecond,
		Clock:       clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mgr.Close() }()

	class := dyn.NewClass("Storm")
	id, err := class.AddMethod(dyn.MethodSpec{Name: "op000", Result: dyn.Int32T, Distributed: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := mgr.Register(class, TechSOAP)
	if err != nil {
		t.Fatal(err)
	}
	pub := srv.Publisher()
	wsdlPath := "/wsdl/Storm.wsdl"

	// The subscriber is the concurrent client following the document
	// through the store: it counts commits and keeps the last descriptor
	// version it was handed.
	var commits atomic.Int64
	var lastDesc atomic.Uint64
	cancel := mgr.Store().Subscribe(func(op ifsvr.StoreOp) {
		for _, ev := range op.Events {
			if ev.Path == wsdlPath {
				commits.Add(1)
				lastDesc.Store(ev.Doc.DescriptorVersion)
			}
		}
	})
	defer cancel()

	// The storm: every edit is followed by a full stability timeout, so
	// the DL Publisher publishes each one — the store is what coalesces.
	const storm = 100
	for i := 1; i <= storm; i++ {
		if err := class.RenameMethod(id, fmt.Sprintf("op%03d", i)); err != nil {
			t.Fatal(err)
		}
		drainStorePublisher(clk, pub, 15*time.Millisecond)
	}
	drainStorePublisher(clk, pub, 600*time.Millisecond) // trailing flush

	if got := commits.Load(); got < 1 || got > 5 {
		t.Errorf("storm of %d stable edits committed %d document versions, want 1..5", storm, got)
	}
	if d, _ := mgr.Store().Get(wsdlPath); d.DescriptorVersion != class.InterfaceVersion() {
		t.Errorf("final committed descriptor version %d, class at %d", d.DescriptorVersion, class.InterfaceVersion())
	}

	// Forced publication (the Section 5.7 path) commits synchronously even
	// mid-window: edit, then EnsureCurrent with no virtual-time advance.
	if err := class.RenameMethod(id, "opFinal"); err != nil {
		t.Fatal(err)
	}
	pub.EnsureCurrent()
	d, err := mgr.Store().Get(wsdlPath)
	if err != nil {
		t.Fatal(err)
	}
	if d.DescriptorVersion != class.InterfaceVersion() {
		t.Errorf("forced publication left descriptor version %d, class at %d", d.DescriptorVersion, class.InterfaceVersion())
	}

	// The concurrent client converged on the final version (the forced
	// commit fans out before EnsureCurrent returns).
	if last := lastDesc.Load(); last != class.InterfaceVersion() {
		t.Errorf("concurrent client converged on descriptor version %d, want %d", last, class.InterfaceVersion())
	}
}

// TestPublisherStableTimeoutSemanticsWithWindow pins that the flush window
// does not change the paper's stable-timeout behaviour: edits within the
// stability interval still produce a single generation, and the timer only
// publishes once the interface is stable.
func TestPublisherStableTimeoutSemanticsWithWindow(t *testing.T) {
	clk := clock.NewFake()
	mgr, err := NewManager(Config{
		Timeout:     100 * time.Millisecond,
		FlushWindow: 50 * time.Millisecond,
		Clock:       clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mgr.Close() }()

	class := dyn.NewClass("Stable")
	id, err := class.AddMethod(dyn.MethodSpec{Name: "a", Result: dyn.Int32T, Distributed: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := mgr.Register(class, TechSOAP)
	if err != nil {
		t.Fatal(err)
	}
	pub := srv.Publisher()
	gen0 := pub.Stats().Generations

	// Three rapid edits inside one stability interval: timer keeps
	// resetting, nothing publishes.
	for _, name := range []string{"b", "c", "d"} {
		if err := class.RenameMethod(id, name); err != nil {
			t.Fatal(err)
		}
		clk.Advance(40 * time.Millisecond)
	}
	if got := pub.Stats().Generations; got != gen0 {
		t.Fatalf("mid-burst generations = %d, want %d", got, gen0)
	}

	// Stability: one generation, and after the flush window one commit.
	drainStorePublisher(clk, pub, 200*time.Millisecond)
	if got := pub.Stats().Generations; got != gen0+1 {
		t.Errorf("post-stability generations = %d, want %d", got, gen0+1)
	}
	if d, _ := mgr.Store().Get("/wsdl/Stable.wsdl"); d.DescriptorVersion != class.InterfaceVersion() {
		t.Errorf("committed descriptor version %d, class at %d", d.DescriptorVersion, class.InterfaceVersion())
	}
}

// TestReRegisterAfterCloseUnderFlushWindow pins the retire-on-close
// behaviour: with a coalescing window configured, closing a server and
// re-registering its class must not leave the dead server's documents
// (notably the CORBA IOR) being served, and the fresh server's basic
// documents must commit immediately, resuming the version sequence so
// parked watchers wake.
func TestReRegisterAfterCloseUnderFlushWindow(t *testing.T) {
	mgr, err := NewManager(Config{Timeout: 20 * time.Millisecond, FlushWindow: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mgr.Close() }()

	newClass := func() *dyn.Class {
		c := dyn.NewClass("Calc")
		if _, err := c.AddMethod(dyn.MethodSpec{Name: "op", Result: dyn.Int32T, Distributed: true}); err != nil {
			t.Fatal(err)
		}
		return c
	}
	srv1, err := mgr.Register(newClass(), TechCORBA)
	if err != nil {
		t.Fatal(err)
	}
	oldIOR, err := mgr.Store().Get("/ior/Calc.ior")
	if err != nil {
		t.Fatal(err)
	}
	oldIDLVer := mgr.Store().Version("/idl/Calc.idl")

	// A subscriber waiting past the first server's last version must see
	// the re-registered server's publication.
	woken := make(chan ifsvr.Document, 1)
	cancel := mgr.Store().Subscribe(func(op ifsvr.StoreOp) {
		for _, ev := range op.Events {
			if ev.Path == "/ior/Calc.ior" && ev.Doc.Version > oldIOR.Version {
				select {
				case woken <- ev.Doc:
				default:
				}
			}
		}
	})
	defer cancel()

	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Store().Get("/ior/Calc.ior"); err == nil {
		t.Fatal("closed server's IOR must not be served")
	}

	if _, err := mgr.Register(newClass(), TechCORBA); err != nil {
		t.Fatal(err)
	}
	newIOR, err := mgr.Store().Get("/ior/Calc.ior")
	if err != nil {
		t.Fatal("re-registered server's IOR must commit immediately:", err)
	}
	if newIOR.Content == oldIOR.Content {
		t.Error("re-registered server served the dead server's IOR")
	}
	if newIOR.Version <= oldIOR.Version {
		t.Errorf("IOR version went backwards: %d after %d", newIOR.Version, oldIOR.Version)
	}
	if v := mgr.Store().Version("/idl/Calc.idl"); v <= oldIDLVer {
		t.Errorf("IDL version went backwards: %d after %d", v, oldIDLVer)
	}
	select {
	case d := <-woken:
		if d.Content != newIOR.Content {
			t.Error("watcher woke on something other than the new IOR")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked watcher did not wake on the re-registered server's IOR")
	}
}
