package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"livedev/internal/clock"
	"livedev/internal/dyn"
	"livedev/internal/ifsvr"
)

// TestStorePublishCommitsBeforeReturn: every publish is committed, in its
// own epoch, and handed to the taps before it returns — the basic
// definition is visible at once (Section 4), and the stability timeout
// upstream is the only thing that rations publication.
func TestStorePublishCommitsBeforeReturn(t *testing.T) {
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
	if st.Publishes != 2 || st.Commits != 2 || st.Batches != 2 {
		t.Errorf("stats = %+v", st)
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

// TestStoreSubscribeUnsubscribeRace hammers publish, subscribe,
// unsubscribe, and held-stream connect/park/hangup concurrently — run
// under -race. Each subscriber checks that the versions it sees per path
// are strictly increasing (delivery preserves commit order).
func TestStoreSubscribeUnsubscribeRace(t *testing.T) {
	s := ifsvr.NewStore(0, nil)
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

// TestManagerEditStormCoalesces is the acceptance scenario end to end: a
// storm of 100 edits against a managed server, each inside the stability
// interval of the one before, yields exactly one committed document
// version — the stable timeout (Section 5.6) is what rations the storm —
// and a forced publication still commits synchronously with the final
// interface.
func TestManagerEditStormCoalesces(t *testing.T) {
	clk := clock.NewFake()
	mgr, err := NewManager(Config{
		Timeout: 100 * time.Millisecond,
		Clock:   clk,
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

	// The storm: every edit lands 5 ms after the last, well inside the
	// 100 ms stability interval, so the timer keeps resetting and only
	// the quiet period after the last edit publishes.
	const storm = 100
	for i := 1; i <= storm; i++ {
		if err := class.RenameMethod(id, fmt.Sprintf("op%03d", i)); err != nil {
			t.Fatal(err)
		}
		clk.Advance(5 * time.Millisecond)
	}
	clk.Advance(200 * time.Millisecond) // the quiet period
	pub.WaitIdle()

	if got := commits.Load(); got != 1 {
		t.Errorf("storm of %d edits inside one stability interval committed %d document versions, want 1", storm, got)
	}
	if d, _ := mgr.Store().Get(wsdlPath); d.DescriptorVersion != class.InterfaceVersion() {
		t.Errorf("final committed descriptor version %d, class at %d", d.DescriptorVersion, class.InterfaceVersion())
	}

	// Forced publication (the Section 5.7 path) commits synchronously even
	// with the timer armed: edit, then EnsureCurrent with no virtual-time
	// advance.
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

// TestReRegisterAfterClose pins the retire-on-close behaviour: closing a
// server and re-registering its class must not leave the dead server's
// documents (notably the CORBA IOR) being served, and the fresh server's
// basic documents must commit immediately, resuming the version sequence
// so parked watchers wake.
func TestReRegisterAfterClose(t *testing.T) {
	mgr, err := NewManager(Config{Timeout: 20 * time.Millisecond})
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
