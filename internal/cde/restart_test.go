package cde

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"livedev/internal/core"
	"livedev/internal/dyn"
)

// calcClass builds a one-method class, pre-aged by renames so its
// descriptor version is distinguishable across incarnations.
func calcClass(t *testing.T, renames int) *dyn.Class {
	t.Helper()
	c := dyn.NewClass("Calc")
	id, err := c.AddMethod(dyn.MethodSpec{
		Name: "op", Result: dyn.Int32T, Distributed: true,
		Body: func(_ *dyn.Instance, _ []dyn.Value) (dyn.Value, error) {
			return dyn.Int32Value(7), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < renames; i++ {
		if err := c.RenameMethod(id, fmt.Sprintf("tmp%d", i)); err != nil {
			t.Fatal(err)
		}
		if err := c.RenameMethod(id, "op"); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// startCalcManager starts a manager serving Calc over tech on the given
// interface address ("127.0.0.1:0" for fresh) with an optional data dir.
func startCalcManager(t *testing.T, ifaceAddr, dataDir string, renames int, tech core.Technology) (*core.Manager, core.Server) {
	t.Helper()
	mgr, err := core.NewManager(core.Config{InterfaceAddr: ifaceAddr, Timeout: time.Hour, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := mgr.Register(calcClass(t, renames), tech)
	if err != nil {
		_ = mgr.Close()
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		_ = mgr.Close()
		t.Fatal(err)
	}
	srv.Publisher().PublishNow()
	srv.Publisher().WaitIdle()
	return mgr, srv
}

// TestNoteRestartSignals pins the restart detector's truth table —
// including the epoch-overtake blind spot: a state-loss incarnation whose
// store-wide epoch has already passed the client's (path-scoped) epoch
// cursor is still recognized by its regressed document version.
func TestNoteRestartSignals(t *testing.T) {
	cases := []struct {
		name string
		cur  DocVersions
		got  DocVersions
		want bool
	}{
		{"durable restart, versions continue",
			DocVersions{Doc: 5, Epoch: 9, Generation: 1}, DocVersions{Doc: 6, Epoch: 10, Generation: 2}, false},
		{"same generation, journal eviction",
			DocVersions{Doc: 5, Epoch: 9, Generation: 1}, DocVersions{Doc: 3, Epoch: 4, Generation: 1}, false},
		{"state loss, epoch regressed",
			DocVersions{Doc: 5, Epoch: 9, Generation: 1}, DocVersions{Doc: 1, Epoch: 2, Generation: 2}, true},
		{"state loss, epoch overtook but doc regressed",
			DocVersions{Doc: 5, Epoch: 9, Generation: 1}, DocVersions{Doc: 1, Epoch: 12, Generation: 2}, true},
		{"old server without the header",
			DocVersions{Doc: 5, Epoch: 9, Generation: 0}, DocVersions{Doc: 1, Epoch: 2, Generation: 0}, false},
	}
	for _, tc := range cases {
		if got := restarted(tc.cur, tc.got); got != tc.want {
			t.Errorf("%s: restarted(%+v, %+v) = %v, want %v", tc.name, tc.cur, tc.got, got, tc.want)
		}
	}
}

// TestWatchClientRidesDurableRestart: a WithWatch client follows its
// server through a full restart over the same data dir. The restarted
// store resumes the epoch sequence, so the reconnect is served from
// journal replay: the client's view converges on the new incarnation's
// interface with zero extra document fetches, and no restart (state-loss)
// event is recorded — a durable restart is ordinary catch-up.
func TestWatchClientRidesDurableRestart(t *testing.T) {
	dir := t.TempDir()
	mgr1, srv1 := startCalcManager(t, "127.0.0.1:0", dir, 0, core.TechSOAP)
	ifaceAddr := strings.TrimPrefix(mgr1.InterfaceBaseURL(), "http://")
	url := srv1.InterfaceURL()

	ctx := context.Background()
	c, err := Dial(ctx, url, &DialOptions{Watch: true})
	if err != nil {
		_ = mgr1.Close()
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if _, err := c.CallContext(ctx, "op"); err != nil {
		t.Fatalf("pre-restart call: %v", err)
	}
	preVersions := c.Versions()
	if preVersions.Generation == 0 {
		t.Fatal("client saw no store generation; the durable store must serve one")
	}

	// Restart: manager down (streams break, the published doc retires into
	// the durable store), then a new incarnation over the same dir and
	// address, republishing a further-evolved interface.
	if err := mgr1.Close(); err != nil {
		t.Fatal(err)
	}
	mgr2, srv2 := startCalcManager(t, ifaceAddr, dir, 2, core.TechSOAP)
	defer func() { _ = mgr2.Close() }()
	_ = srv2

	// The client's reconnect must converge on the new incarnation's view.
	deadline := time.Now().Add(15 * time.Second)
	for {
		v := c.Versions()
		if v.Doc > preVersions.Doc && v.Generation == preVersions.Generation+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client stuck at %+v (pre-restart %+v)", v, preVersions)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v := c.Versions(); v.Epoch <= preVersions.Epoch {
		t.Errorf("post-restart epoch %d must strictly continue past %d", v.Epoch, preVersions.Epoch)
	}
	st := c.Stats()
	if st.Refreshes != 1 {
		t.Errorf("stats = %+v: durable-restart catch-up must not refetch the document (want exactly the initial fetch)", st)
	}
	if st.Replays == 0 {
		t.Errorf("stats = %+v: the reconnect should have been served from journal replay", st)
	}
	if st.Restarts != 0 {
		t.Errorf("stats = %+v: a durable restart (epochs intact) must not count as a state-loss restart", st)
	}
	if _, err := c.CallContext(ctx, "op"); err != nil {
		t.Fatalf("post-restart call: %v", err)
	}
}

// TestWatchClientRecoversFromStateLossRestart: the server restarts WITHOUT
// its durable state — fresh store, epochs back at zero, a new random
// generation. The client's cursor points at epochs the new incarnation
// will never reach; the generation change paired with the epoch regression
// is the restart signal that forces the (version-regressed) new view in,
// instead of dropping it under the no-backwards rule and wedging forever.
func TestWatchClientRecoversFromStateLossRestart(t *testing.T) {
	mgr1, srv1 := startCalcManager(t, "127.0.0.1:0", "", 3, core.TechSOAP)
	ifaceAddr := strings.TrimPrefix(mgr1.InterfaceBaseURL(), "http://")
	url := srv1.InterfaceURL()

	// Age the published document with real edits so the fresh
	// incarnation's versions clearly regress.
	for i := 0; i < 3; i++ {
		if _, err := srv1.Class().AddMethod(dyn.MethodSpec{
			Name: fmt.Sprintf("extra%d", i), Result: dyn.Int32T, Distributed: true,
			Body: func(_ *dyn.Instance, _ []dyn.Value) (dyn.Value, error) {
				return dyn.Int32Value(0), nil
			},
		}); err != nil {
			t.Fatal(err)
		}
		srv1.Publisher().PublishNow()
		srv1.Publisher().WaitIdle()
	}

	ctx := context.Background()
	c, err := Dial(ctx, url, &DialOptions{Watch: true})
	if err != nil {
		_ = mgr1.Close()
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	preVersions := c.Versions()
	if preVersions.Doc < 2 {
		t.Fatalf("pre-restart doc version = %d, want an aged document", preVersions.Doc)
	}

	if err := mgr1.Close(); err != nil {
		t.Fatal(err)
	}
	mgr2, _ := startCalcManager(t, ifaceAddr, "", 0, core.TechSOAP)
	defer func() { _ = mgr2.Close() }()

	// The client must adopt the new incarnation's view even though its
	// document version and epoch regressed.
	deadline := time.Now().Add(15 * time.Second)
	for {
		v := c.Versions()
		if v.Generation != 0 && v.Generation != preVersions.Generation {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client stuck on the dead incarnation's view %+v", c.Versions())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v := c.Versions(); v.Doc >= preVersions.Doc {
		t.Errorf("new incarnation's doc version = %d, expected a regression below %d (fresh store)", v.Doc, preVersions.Doc)
	}
	if st := c.Stats(); st.Restarts == 0 {
		t.Errorf("stats = %+v: the state-loss restart should have been counted", st)
	}
	if _, err := c.CallContext(ctx, "op"); err != nil {
		t.Fatalf("post-restart call: %v", err)
	}
}

// TestWatchClientRecoversFromWipedDataDir: a durable server whose data
// directory is lost restarts over an empty one at the same address. It
// comes back under a new generation with regressed epochs and versions, so
// the watching client counts exactly one state-loss restart and installs
// the new incarnation's view instead of refusing it as a stale view of the
// same server.
func TestWatchClientRecoversFromWipedDataDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	mgr1, srv1 := startCalcManager(t, "127.0.0.1:0", dir, 3, core.TechSOAP)
	ifaceAddr := strings.TrimPrefix(mgr1.InterfaceBaseURL(), "http://")
	for i := 0; i < 3; i++ {
		if _, err := srv1.Class().AddMethod(dyn.MethodSpec{
			Name: fmt.Sprintf("extra%d", i), Result: dyn.Int32T, Distributed: true,
			Body: func(_ *dyn.Instance, _ []dyn.Value) (dyn.Value, error) {
				return dyn.Int32Value(0), nil
			},
		}); err != nil {
			t.Fatal(err)
		}
		srv1.Publisher().PublishNow()
		srv1.Publisher().WaitIdle()
	}

	ctx := context.Background()
	c, err := Dial(ctx, srv1.InterfaceURL(), &DialOptions{Watch: true})
	if err != nil {
		_ = mgr1.Close()
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	pre := c.Versions()
	if pre.Generation == 0 || pre.Doc < 2 {
		t.Fatalf("pre-restart view %+v, want a generation and an aged document", pre)
	}

	if err := mgr1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	mgr2, _ := startCalcManager(t, ifaceAddr, dir, 0, core.TechSOAP)
	defer func() { _ = mgr2.Close() }()

	deadline := time.Now().Add(15 * time.Second)
	for {
		v := c.Versions()
		if v.Generation != 0 && v.Generation != pre.Generation {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client stuck on the lost incarnation's view %+v", c.Versions())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v := c.Versions(); v.Doc >= pre.Doc || v.Epoch >= pre.Epoch {
		t.Errorf("new incarnation's view %+v, expected versions regressed below %+v (empty data dir)", v, pre)
	}
	if st := c.Stats(); st.Restarts != 1 {
		t.Errorf("stats = %+v: the wiped data dir should count as exactly one state-loss restart", st)
	}
	if _, err := c.CallContext(ctx, "op"); err != nil {
		t.Fatalf("post-restart call: %v", err)
	}
}

// TestCORBAClientReconnectsAfterRestart: a CORBA client dialed without a
// watcher learns of its server's restart from its pooled IIOP connection
// alone, which died with the old manager. A call lets the dead connection
// go and reconnects from the IOR the new manager published at the same
// Interface Server address. Callers share the client: a call that still
// finds the old socket open fails on it, and the connection is dead by
// the time that call returns, so each caller's next call reconnects.
func TestCORBAClientReconnectsAfterRestart(t *testing.T) {
	mgr1, srv1 := startCalcManager(t, "127.0.0.1:0", "", 0, core.TechCORBA)
	ifaceAddr := strings.TrimPrefix(mgr1.InterfaceBaseURL(), "http://")
	ctx := context.Background()
	c, err := Dial(ctx, srv1.InterfaceURL(), nil)
	if err != nil {
		_ = mgr1.Close()
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if _, err := c.CallContext(ctx, "op"); err != nil {
		t.Fatalf("pre-restart call: %v", err)
	}

	if err := mgr1.Close(); err != nil {
		t.Fatal(err)
	}
	mgr2, _ := startCalcManager(t, ifaceAddr, "", 0, core.TechCORBA)
	defer func() { _ = mgr2.Close() }()

	const callers = 4
	var wg sync.WaitGroup
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var errs []error
			for range 2 {
				v, err := c.CallContext(ctx, "op")
				if err == nil {
					if got := v.Int32(); got != 7 {
						t.Errorf("post-restart call returned %v", v)
					}
					return
				}
				errs = append(errs, err)
			}
			t.Errorf("calls never reconnected after the restart: %v", errs)
		}()
	}
	wg.Wait()
}
