package cde

import (
	"context"
	"fmt"
	neturl "net/url"
	"testing"
	"time"

	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/repl"
)

// startFollower replicates the given leader Interface Server and serves
// the replica read-only on a fresh port, returning its base URL.
func startFollower(t *testing.T, leaderURL string) (*repl.Follower, string) {
	t.Helper()
	f, err := repl.OpenFollower(repl.FollowerConfig{Leader: leaderURL, RetryDelay: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	base, err := f.Serve("127.0.0.1:0")
	if err != nil {
		f.Close()
		t.Fatal(err)
	}
	return f, base
}

// awaitReplicated waits until the follower's store serves path at least at
// version want.
func awaitReplicated(t *testing.T, f *repl.Follower, path string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		doc, err := f.Store().Get(path)
		if err == nil && doc.Version >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never replicated %s v%d (err=%v)", path, want, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestWatchClientFailsOverBetweenReplicas: a watch client reads the
// interface document from a read-only replica, with a second replica as a
// fallback endpoint. When its replica dies mid-session, the client's
// stream reconnect rotates to the surviving replica and rides journal
// replay there — the replicas serve the LEADER's restart generation, so
// the endpoint switch is ordinary catch-up, never a state-loss restart
// (Restarts must stay exactly 0), and immediate: only a failure of the
// whole rotation waits out a backoff (Backoffs must stay 0 too).
func TestWatchClientFailsOverBetweenReplicas(t *testing.T) {
	mgr, srv := startCalcManager(t, "127.0.0.1:0", "", 0, core.TechSOAP)
	defer func() { _ = mgr.Close() }()

	u, err := neturl.Parse(srv.InterfaceURL())
	if err != nil {
		t.Fatal(err)
	}
	docPath := u.Path

	fA, baseA := startFollower(t, mgr.InterfaceBaseURL())
	fB, baseB := startFollower(t, mgr.InterfaceBaseURL())
	defer fB.Close()

	awaitReplicated(t, fA, docPath, 1)
	awaitReplicated(t, fB, docPath, 1)

	ctx := context.Background()
	c, err := Dial(ctx, baseA+docPath, &DialOptions{
		Watch:     true,
		Endpoints: []string{baseA, baseB},
	})
	if err != nil {
		fA.Close()
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if _, err := c.CallContext(ctx, "op"); err != nil {
		fA.Close()
		t.Fatalf("call via replica-served interface: %v", err)
	}
	preVersions := c.Versions()
	if preVersions.Generation == 0 {
		t.Fatal("client saw no generation; replicas must relay the leader's")
	}

	// edit publishes one interface evolution on the leader and returns the
	// resulting document version the client must converge to.
	edit := func(i int) uint64 {
		if _, err := srv.Class().AddMethod(dyn.MethodSpec{
			Name: fmt.Sprintf("extra%d", i), Result: dyn.Int32T, Distributed: true,
			Body: func(_ *dyn.Instance, _ []dyn.Value) (dyn.Value, error) {
				return dyn.Int32Value(0), nil
			},
		}); err != nil {
			t.Fatal(err)
		}
		srv.Publisher().PublishNow()
		srv.Publisher().WaitIdle()
		doc, err := mgr.Store().Get(docPath)
		if err != nil {
			t.Fatal(err)
		}
		return doc.Version
	}
	awaitClient := func(want uint64) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for c.Versions().Doc < want {
			if time.Now().After(deadline) {
				t.Fatalf("client stuck at %+v, want doc v%d", c.Versions(), want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Live replication through replica A: leader edit -> A -> client.
	awaitClient(edit(0))

	// Kill replica A mid-session. The client's stream breaks; the
	// reconnect rotates to replica B and catches up there.
	fA.Close()
	v2 := edit(1)
	awaitReplicated(t, fB, docPath, v2)
	awaitClient(v2)

	post := c.Versions()
	if post.Generation != preVersions.Generation {
		t.Errorf("generation changed %d -> %d across failover; replicas must both serve the leader's", preVersions.Generation, post.Generation)
	}
	st := c.Stats()
	if st.Restarts != 0 {
		t.Errorf("stats = %+v: replica failover must not be misread as a state-loss restart", st)
	}
	if st.Reconnects == 0 {
		t.Errorf("stats = %+v: killing the client's replica should have forced at least one reconnect", st)
	}
	if st.Backoffs != 0 {
		t.Errorf("stats = %+v: failing over to a live replica must not wait out a backoff", st)
	}
	if _, err := c.CallContext(ctx, "op"); err != nil {
		t.Fatalf("post-failover call: %v", err)
	}
}
