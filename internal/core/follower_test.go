package core_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"livedev/internal/core"
	"livedev/internal/ifsvr"
)

// TestFollowerModeManager: a manager configured with FollowURL starts (its
// Interface Server's valves are set before the view is served), replicates
// a class the leader registers, serves the document on its own interface
// URL under the leader's generation, and refuses registrations.
func TestFollowerModeManager(t *testing.T) {
	leader, err := core.NewManager(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	follower, err := core.NewManager(core.Config{
		FollowURL:         leader.InterfaceBaseURL(),
		MaxWatcherLag:     7,
		WatchWriteTimeout: 3 * time.Second,
	})
	if err != nil {
		t.Fatalf("follower-mode manager: %v", err)
	}
	defer follower.Close()
	if follower.Follower() == nil || follower.TailServer() != nil {
		t.Fatal("a FollowURL manager must run a follower and no tail server")
	}
	if iface := follower.InterfaceServer(); iface.MaxWatcherLag != 7 || iface.StreamWriteTimeout != 3*time.Second {
		t.Errorf("valves not applied to the follower's interface server: lag=%d timeout=%v", iface.MaxWatcherLag, iface.StreamWriteTimeout)
	}

	srv, err := leader.Register(slowEchoClass(t, "Replicated", 0), core.TechSOAP)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ifsvr.FetchContext(context.Background(), nil, srv.InterfaceURL())
	if err != nil {
		t.Fatal(err)
	}
	replicaURL := follower.InterfaceBaseURL() + strings.TrimPrefix(srv.InterfaceURL(), leader.InterfaceBaseURL())
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := ifsvr.FetchContext(context.Background(), nil, replicaURL)
		if err == nil && got.Version >= want.Version {
			if got != want {
				t.Fatalf("replica serves %+v, leader %+v", got, want)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("document never appeared at %s: %v", replicaURL, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := follower.Register(slowEchoClass(t, "Local", 0), core.TechSOAP); err == nil {
		t.Error("Register on a read-only replica must fail")
	}
}
