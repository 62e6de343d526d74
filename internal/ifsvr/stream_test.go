package ifsvr

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startStreamServer starts the HTTP view over a fresh store opened with
// cfg, returning the store and the document URL; both close when the test
// ends.
func startStreamServer(t *testing.T, cfg StoreConfig) (*Store, string) {
	t.Helper()
	st, err := OpenStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewView(st)
	base, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		st.Close()
		_ = srv.Close()
	})
	return st, base + "/wsdl/S.wsdl"
}

// TestStreamDeliversEveryCommittedVersion: a stream opened at epoch 0
// carries every committed version in order, live.
func TestStreamDeliversEveryCommittedVersion(t *testing.T) {
	st, url := startStreamServer(t, StoreConfig{})
	st.PublishVersioned("/wsdl/S.wsdl", "text/xml", "<v1/>", 1)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var got []uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = WatchStream(ctx, nil, url, 0, func(ev StreamEvent) {
			mu.Lock()
			got = append(got, ev.Doc.Version)
			if len(got) == 5 {
				cancel()
			}
			mu.Unlock()
		})
	}()

	for i := 2; i <= 5; i++ {
		st.PublishVersioned("/wsdl/S.wsdl", "text/xml", fmt.Sprintf("<v%d/>", i), uint64(i))
		time.Sleep(2 * time.Millisecond)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not deliver all versions")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range got {
		if v != uint64(i+1) {
			t.Fatalf("versions = %v, want 1..5 in order", got)
		}
	}
}

// TestStreamStormReconnectNoMissNoDup is the acceptance scenario: a client
// disconnects in the middle of a 100-edit storm and reconnects with
// after=<last seen epoch>; journal replay hands it exactly the versions it
// missed — none skipped, none duplicated. Run under -race.
func TestStreamStormReconnectNoMissNoDup(t *testing.T) {
	st, url := startStreamServer(t, StoreConfig{})
	st.PublishVersioned("/wsdl/S.wsdl", "text/xml", "<v1/>", 1)

	const storm = 100
	finalVersion := uint64(1 + storm)

	var mu sync.Mutex
	var versions []uint64
	var lastEpoch uint64
	var sawReplay bool
	record := func(ev StreamEvent) {
		mu.Lock()
		versions = append(versions, ev.Doc.Version)
		lastEpoch = ev.Doc.Epoch
		sawReplay = sawReplay || ev.Replayed
		if ev.Snapshot {
			t.Error("replay within journal coverage must not fall back to a snapshot")
		}
		mu.Unlock()
	}

	// First connection: collect some of the storm, then "drop".
	ctx1, cancel1 := context.WithCancel(context.Background())
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		_ = WatchStream(ctx1, nil, url, 0, record)
	}()

	// The storm, concurrent with the watcher.
	stormDone := make(chan struct{})
	go func() {
		defer close(stormDone)
		for i := 1; i <= storm; i++ {
			st.PublishVersioned("/wsdl/S.wsdl", "text/xml", fmt.Sprintf("<e%d/>", i), uint64(i))
			time.Sleep(500 * time.Microsecond)
		}
	}()

	// Disconnect mid-storm: once a few events arrived, kill the stream.
	for {
		mu.Lock()
		n := len(versions)
		mu.Unlock()
		if n >= 10 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel1()
	<-firstDone

	// Reconnect with the last seen epoch; replay must close the gap.
	mu.Lock()
	after := lastEpoch
	mu.Unlock()
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	secondDone := make(chan struct{})
	go func() {
		defer close(secondDone)
		_ = WatchStream(ctx2, nil, url, after, func(ev StreamEvent) {
			record(ev)
			if ev.Doc.Version >= finalVersion {
				cancel2()
			}
		})
	}()
	<-stormDone
	select {
	case <-secondDone:
	case <-time.After(10 * time.Second):
		t.Fatal("reconnected stream did not converge on the final version")
	}

	mu.Lock()
	defer mu.Unlock()
	if !sawReplay {
		t.Error("reconnect during the storm should have been served from journal replay")
	}
	seen := make(map[uint64]bool)
	for _, v := range versions {
		if seen[v] {
			t.Fatalf("version %d delivered twice (versions: %v)", v, versions)
		}
		seen[v] = true
	}
	for v := uint64(1); v <= finalVersion; v++ {
		if !seen[v] {
			t.Fatalf("version %d was never delivered (got %d of %d)", v, len(versions), finalVersion)
		}
	}
}

// TestStreamReplayFallsBackToSnapshot: when the journal has evicted the
// client's epoch, the reconnect opens with one full-snapshot event of the
// current document instead of a (gappy) replay.
func TestStreamReplayFallsBackToSnapshot(t *testing.T) {
	st, url := startStreamServer(t, StoreConfig{HistoryLen: 8})
	for i := 1; i <= 50; i++ {
		st.PublishVersioned("/wsdl/S.wsdl", "text/xml", fmt.Sprintf("<v%d/>", i), uint64(i))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := make(chan StreamEvent, 16)
	go func() {
		_ = WatchStream(ctx, nil, url, 1, func(ev StreamEvent) {
			select {
			case events <- ev:
			default:
			}
		})
	}()
	select {
	case ev := <-events:
		if !ev.Snapshot {
			t.Fatalf("first event after eviction = %+v, want a snapshot", ev)
		}
		if ev.Doc.Version != 50 || ev.Doc.Content != "<v50/>" {
			t.Errorf("snapshot doc = %+v, want the current version 50", ev.Doc)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no snapshot event arrived")
	}

	// The stream stays live past the snapshot.
	st.PublishVersioned("/wsdl/S.wsdl", "text/xml", "<v51/>", 51)
	select {
	case ev := <-events:
		if ev.Doc.Version != 51 || ev.Snapshot || ev.Replayed {
			t.Errorf("post-snapshot live event = %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream went dead after the snapshot")
	}
}

// TestStreamChurnUnderEvictingJournal hammers connect/disconnect,
// store-subscriber churn, and publications against a journal small enough
// to evict continuously — every client must still observe strictly
// increasing versions (replays and snapshots included). Run under -race.
func TestStreamChurnUnderEvictingJournal(t *testing.T) {
	st, url := startStreamServer(t, StoreConfig{HistoryLen: 4})
	st.PublishVersioned("/wsdl/S.wsdl", "text/xml", "<v1/>", 1)

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Publisher.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 2; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			st.PublishVersioned("/wsdl/S.wsdl", "text/xml", fmt.Sprintf("<v%d/>", i), uint64(i))
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Store-subscriber churn alongside the streams.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cancel := st.Subscribe(func(StoreOp) {})
			time.Sleep(time.Millisecond)
			cancel()
		}
	}()

	// Churning stream clients: each connection lives ~10ms, then reconnects
	// with its last seen epoch. Versions must never move backwards —
	// whether delivered live, replayed, or (after journal eviction) as the
	// snapshot fallback.
	var monotone atomic.Bool
	monotone.Store(true)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastSeen, lastEpoch uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
				_ = WatchStream(ctx, nil, url, lastEpoch, func(ev StreamEvent) {
					if ev.Doc.Version < lastSeen {
						monotone.Store(false)
					}
					lastSeen = ev.Doc.Version
					lastEpoch = ev.Doc.Epoch
				})
				cancel()
			}
		}()
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if !monotone.Load() {
		t.Error("a stream client observed a version regression across reconnects")
	}
}

// TestStreamOnRepublishedPathSkipsStaleHistory: a stream parked on a
// retired (currently unpublished) path must deliver the republication as
// its first event — not the retired predecessor's stale journal history,
// which is still in the ring (Remove does not purge journal entries).
func TestStreamOnRepublishedPathSkipsStaleHistory(t *testing.T) {
	st, url := startStreamServer(t, StoreConfig{})
	const path = "/wsdl/S.wsdl"
	for i := 1; i <= 3; i++ {
		st.PublishVersioned(path, "text/xml", fmt.Sprintf("<v%d/>", i), uint64(i))
	}
	st.Remove(path)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := make(chan StreamEvent, 16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = WatchStream(ctx, nil, url, 0, func(ev StreamEvent) {
			select {
			case events <- ev:
			default:
			}
		})
	}()
	// Let the stream park on the unpublished path, then republish.
	time.Sleep(50 * time.Millisecond)
	st.PublishVersioned(path, "text/xml", "<v4/>", 4)

	select {
	case ev := <-events:
		if ev.Doc.Version != 4 || ev.Doc.Content != "<v4/>" {
			t.Fatalf("first event after republication = %+v, want version 4 (not the retired history)", ev.Doc)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked stream never woke on the republication")
	}
	cancel()
	<-done
}

// TestStreamAgainstLongPollOnlyServer: a server that only speaks the
// long-poll protocol is detected and reported as ErrStreamUnsupported.
func TestStreamAgainstLongPollOnlyServer(t *testing.T) {
	// Simulate an old server: a handler that answers every watch as a
	// long-poll 200 with the raw document.
	old := http.NewServeMux()
	old.HandleFunc("/doc", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/xml")
		w.Header().Set(VersionHeader, "3")
		_, _ = w.Write([]byte("<doc/>"))
	})
	srv := &http.Server{Handler: old}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer func() { _ = srv.Close() }()

	err = WatchStream(context.Background(), nil, "http://"+ln.Addr().String()+"/doc", 0, func(StreamEvent) {
		t.Error("no events expected from a non-streaming server")
	})
	if !errors.Is(err, ErrStreamUnsupported) {
		t.Fatalf("err = %v, want ErrStreamUnsupported", err)
	}
}

// TestStreamIsUnchunkedOnHTTP1: an HTTP/1.1 watch stream is delimited by
// the connection, not by chunk framing, so a frame larger than net/http's
// connection buffer is one socket write; a document of that size still
// arrives whole.
func TestStreamIsUnchunkedOnHTTP1(t *testing.T) {
	st, url := startStreamServer(t, StoreConfig{})
	big := "<" + strings.Repeat("x", 12<<10) + "/>"
	st.PublishVersioned("/wsdl/S.wsdl", "text/xml", big, 1)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"?watch=stream&after=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.ProtoMajor != 1 || len(resp.TransferEncoding) != 0 || resp.ContentLength != -1 {
		t.Fatalf("stream answered HTTP/%d with Transfer-Encoding %v, Content-Length %d; want HTTP/1.1, unchunked, unsized",
			resp.ProtoMajor, resp.TransferEncoding, resp.ContentLength)
	}
	err = readStream(ctx, resp.Body, 0, func(ev StreamEvent) {
		if ev.Doc.Content != big {
			t.Errorf("a %d-byte document arrived as %d bytes", len(big), len(ev.Doc.Content))
		}
		cancel()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("stream ended with %v before delivering the document", err)
	}
}

// TestStreamHangupReleasesWatcher: a held stream whose client hangs up is
// released at once, not at its next write: with a one-hour heartbeat and
// no commits, only the server noticing the closed connection can end it.
func TestStreamHangupReleasesWatcher(t *testing.T) {
	st := NewStore(0, nil)
	t.Cleanup(st.Close)
	srv := NewView(st)
	srv.HeartbeatInterval = time.Hour
	base, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	st.PublishVersioned("/wsdl/S.wsdl", "text/xml", "<v1/>", 1)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- WatchStream(ctx, nil, base+"/wsdl/S.wsdl", 0, func(StreamEvent) { cancel() })
	}()
	select {
	case <-done: // the catch-up arrived and the client hung up
	case <-time.After(5 * time.Second):
		t.Fatal("the stream never delivered its catch-up")
	}
	deadline := time.Now().Add(2 * time.Second)
	for st.Stats().Fanout.Watchers != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d watchers still registered 2s after their client hung up", st.Stats().Fanout.Watchers)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamSnapshotAllocsFlatInDocSize: a mid-stream snapshot reset and a
// parked first publication send the current version's commit-time bytes,
// so what a Collect allocates does not grow with the document: a held
// stream must not encode a version once per connection.
func TestStreamSnapshotAllocsFlatInDocSize(t *testing.T) {
	measure := func(size int, parked bool) uint64 {
		st, err := OpenStore(StoreConfig{HistoryLen: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		const path = "/wsdl/S.wsdl"
		for range 3 {
			st.Publish(path, "text/xml", strings.Repeat("<&>", size/3))
		}
		src := &streamSource{st: st, path: path, gen: st.Generation()}
		collect := func() {
			// A live cursor at version 1, whose successor the one-entry
			// journal lost (a reset), or a stream parked before the first
			// publication.
			src.live, src.parked, src.lastVer, src.lastEpoch = true, parked, 1, 1
			if parked {
				src.lastVer, src.lastEpoch = 0, 0
			}
			if !src.Collect(io.Discard) {
				t.Fatal("Collect ended the stream")
			}
		}
		collect() // grows the reused frame buffer
		best := ^uint64(0)
		var before, after runtime.MemStats
		for range 5 {
			runtime.ReadMemStats(&before)
			collect()
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	for _, parked := range []bool{false, true} {
		small, large := measure(1<<10, parked), measure(64<<10, parked)
		t.Logf("parked=%v: Collect allocates %d bytes at 1 KB contents, %d at 64 KB", parked, small, large)
		if large > small && large-small >= 64<<10 {
			t.Errorf("parked=%v: Collect allocates %d bytes more at 64 KB contents than at 1 KB: it encodes the document again", parked, large-small)
		}
	}
}
