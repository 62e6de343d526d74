package repl_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"livedev/internal/ifsvr"
	"livedev/internal/repl"
)

// holdingTransport is a follower's stream transport with a hold: while
// held, reads of stream response bodies block, so the leader's events pile
// up behind the connection and reach the follower as one burst on
// release.
type holdingTransport struct {
	http.RoundTripper
	mu   sync.Mutex
	held chan struct{} // non-nil while held; closed by release
}

func (h *holdingTransport) hold() {
	h.mu.Lock()
	h.held = make(chan struct{})
	h.mu.Unlock()
}

func (h *holdingTransport) release() {
	h.mu.Lock()
	if h.held != nil {
		close(h.held)
		h.held = nil
	}
	h.mu.Unlock()
}

func (h *holdingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := h.RoundTripper.RoundTrip(req)
	if err == nil && req.URL.Query().Has("after") {
		resp.Body = &heldBody{ReadCloser: resp.Body, h: h}
	}
	return resp, err
}

type heldBody struct {
	io.ReadCloser
	h *holdingTransport
}

func (b *heldBody) Read(p []byte) (int, error) {
	b.h.mu.Lock()
	held := b.h.held
	b.h.mu.Unlock()
	if held != nil {
		<-held
	}
	return b.ReadCloser.Read(p)
}

// recordOps subscribes to st's logged operations and returns them as
// "C epoch path version" / "R path version" lines, in delivery order.
func recordOps(st *ifsvr.Store) func() []string {
	var mu sync.Mutex
	var ops []string
	st.Subscribe(func(op ifsvr.StoreOp) {
		mu.Lock()
		defer mu.Unlock()
		if op.RemovePath != "" {
			ops = append(ops, fmt.Sprintf("R %s %d", op.RemovePath, op.RemoveVersion))
		}
		for _, ev := range op.Events {
			ops = append(ops, fmt.Sprintf("C %d %s %d", ev.Doc.Epoch, ev.Path, ev.Doc.Version))
		}
	})
	return func() []string {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(ops)
	}
}

// TestFollowerAppliesInCommitOrder: a burst the follower receives all at
// once — its stream held while the leader commits across paths that the
// replication plane once split over four streams, then released — is
// applied in the leader's commit order. The follower's logged operations
// are the leader's, in the leader's order; its replay journal holds the
// leader's bytes; and a watcher held on each path sees every version
// exactly once.
func TestFollowerAppliesInCommitOrder(t *testing.T) {
	st, base := startLeader(t, ifsvr.StoreConfig{HistoryLen: 100000})
	leaderOps := recordOps(st)

	// Two paths on each of the four streams the replication tail was once
	// split into.
	var paths []string
	covered := make(map[int]int)
	for i := 0; len(paths) < 8; i++ {
		p := fmt.Sprintf("/doc/order-%d", i)
		if k := ifsvr.ShardOf(p, 4); covered[k] < 2 {
			covered[k]++
			paths = append(paths, p)
		}
	}

	tr := &holdingTransport{RoundTripper: http.DefaultTransport.(*http.Transport).Clone()}
	f, err := repl.OpenFollower(repl.FollowerConfig{
		Leader:     base,
		HTTPClient: &http.Client{Transport: tr},
		RetryDelay: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("opening follower: %v", err)
	}
	defer f.Close()
	defer tr.release()
	followerOps := recordOps(f.Store())
	fURL, err := f.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serving follower: %v", err)
	}

	for _, p := range paths {
		st.Publish(p, "text/plain", p+" v1")
	}
	st.Publish("/doc/retired", "text/plain", "short-lived")
	waitConverged(t, st, f.Store())

	// One watcher per path on the follower, each past its first version
	// before the burst.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	type watch struct {
		mu       sync.Mutex
		versions []uint64
	}
	watches := make([]*watch, len(paths))
	var watchers sync.WaitGroup
	defer watchers.Wait()
	defer cancel()
	for i, p := range paths {
		w := &watch{}
		watches[i] = w
		watchers.Add(1)
		go func() {
			defer watchers.Done()
			_ = ifsvr.WatchStream(ctx, nil, fURL+p, 0, func(ev ifsvr.StreamEvent) {
				w.mu.Lock()
				w.versions = append(w.versions, ev.Doc.Version)
				w.mu.Unlock()
			})
		}()
	}
	awaitVersion := func(w *watch, v uint64) {
		t.Helper()
		for {
			w.mu.Lock()
			n := len(w.versions)
			last := uint64(0)
			if n > 0 {
				last = w.versions[n-1]
			}
			w.mu.Unlock()
			if last >= v {
				return
			}
			if ctx.Err() != nil {
				t.Fatalf("a watcher stalled at version %d, want %d", last, v)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, w := range watches {
		awaitVersion(w, 1)
	}

	// The burst, behind the held stream: versions 2..6 of every path in
	// round-robin, so consecutive epochs belong to different paths, and a
	// retirement in the middle.
	const last = 6
	tr.hold()
	for v := 2; v <= last; v++ {
		for _, p := range paths {
			st.Publish(p, "text/plain", fmt.Sprintf("%s v%d", p, v))
		}
		if v == 4 {
			st.Remove("/doc/retired")
		}
	}
	tr.release()
	waitConverged(t, st, f.Store())
	awaitRemoved(t, "/doc/retired", f.Store())
	for _, w := range watches {
		awaitVersion(w, last)
	}

	if got, want := followerOps(), leaderOps(); !slices.Equal(got, want) {
		t.Fatalf("follower applied %d operations out of the leader's order:\n follower %q\n leader   %q", len(got), got, want)
	}
	for _, p := range paths {
		lev, lok := st.ReplayEventsInto(p, 0, nil)
		fev, fok := f.Store().ReplayEventsInto(p, 0, nil)
		if !lok || !fok || len(lev) != last || len(fev) != len(lev) {
			t.Fatalf("%s: replay covers %d (ok=%v) on the leader, %d (ok=%v) on the follower; want %d", p, len(lev), lok, len(fev), fok, last)
		}
		for i := range lev {
			if !bytes.Equal(fev[i].Payload, lev[i].Payload) {
				t.Fatalf("%s: replayed event %d differs:\n leader   %s\n follower %s", p, i, lev[i].Payload, fev[i].Payload)
			}
		}
	}
	for i, w := range watches {
		w.mu.Lock()
		got := slices.Clone(w.versions)
		w.mu.Unlock()
		if want := []uint64{1, 2, 3, 4, 5, 6}; !slices.Equal(got, want) {
			t.Errorf("%s: watcher saw versions %v, want %v", paths[i], got, want)
		}
	}
}
