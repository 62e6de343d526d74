package cde

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"livedev/internal/core"
	"livedev/internal/dyn"
)

// TestWatchOffKeepsFetchingPath: without the option a client connects
// fine and Watching reports false.
func TestWatchOffKeepsFetchingPath(t *testing.T) {
	c, err := newFakeServer(t).dial()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if c.Watching() {
		t.Error("client without the watch option must not report watching")
	}
}

// breakingTransport passes requests through but cuts the FIRST streaming-
// watch response body at a deadline — a deterministic mid-storm disconnect.
type breakingTransport struct {
	after time.Duration

	mu     sync.Mutex
	broken bool
}

func (b *breakingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || !strings.Contains(req.URL.RawQuery, "watch=stream") {
		return resp, err
	}
	b.mu.Lock()
	first := !b.broken
	b.broken = true
	b.mu.Unlock()
	if first {
		resp.Body = &expiringBody{rc: resp.Body, deadline: time.Now().Add(b.after)}
	}
	return resp, nil
}

// expiringBody fails every Read past its deadline, simulating a dropped
// connection.
type expiringBody struct {
	rc       io.ReadCloser
	deadline time.Time
}

func (e *expiringBody) Read(p []byte) (int, error) {
	if time.Now().After(e.deadline) {
		return 0, errors.New("connection dropped (test)")
	}
	// Bound each read so the deadline is honored even while parked idle.
	type result struct {
		n   int
		err error
	}
	ch := make(chan result, 1)
	go func() {
		n, err := e.rc.Read(p)
		ch <- result{n, err}
	}()
	select {
	case r := <-ch:
		return r.n, r.err
	case <-time.After(time.Until(e.deadline)):
		_ = e.rc.Close()
		return 0, errors.New("connection dropped (test)")
	}
}

func (e *expiringBody) Close() error { return e.rc.Close() }

// TestStreamWatcherReconnectRidesReplay is the acceptance scenario at the
// client level: a watch client whose stream drops in the middle of an edit
// storm reconnects with its last seen epoch and is served the missed
// versions from journal replay — Replays moves, Refreshes does not (no
// document refetch), and the view converges on the storm's final version.
func TestStreamWatcherReconnectRidesReplay(t *testing.T) {
	mgr, err := core.NewManager(core.Config{Timeout: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mgr.Close() }()
	class := dyn.NewClass("Storm")
	id, err := class.AddMethod(dyn.MethodSpec{Name: "op0", Result: dyn.Int32T, Distributed: true})
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

	hc := &http.Client{Transport: &breakingTransport{after: 60 * time.Millisecond}}
	c, err := Dial(context.Background(), srv.InterfaceURL(), &DialOptions{Watch: true, HTTPClient: hc})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	// The storm: 100 renames, each published, spanning the stream break.
	const storm = 100
	for i := 1; i <= storm; i++ {
		if err := class.RenameMethod(id, fmt.Sprintf("op%d", i)); err != nil {
			t.Fatal(err)
		}
		srv.Publisher().PublishNow()
		srv.Publisher().WaitIdle()
		time.Sleep(2 * time.Millisecond)
	}

	target := class.InterfaceVersion()
	deadline := time.Now().Add(10 * time.Second)
	for c.Versions().Descriptor < target && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := c.Versions().Descriptor; got < target {
		t.Fatalf("client stuck at descriptor version %d, want %d", got, target)
	}
	st := c.Stats()
	if st.Reconnects == 0 {
		t.Errorf("stats = %+v: the dropped stream should have reconnected", st)
	}
	if st.Replays == 0 {
		t.Errorf("stats = %+v: the reconnect should have been served from journal replay", st)
	}
	if st.Refreshes != 1 {
		t.Errorf("stats = %+v: catch-up must not refetch the document (want exactly the initial fetch)", st)
	}
	if st.StreamEvents == 0 {
		t.Errorf("stats = %+v: watch updates should have arrived over the stream", st)
	}
}

// corruptingTransport passes requests through but replaces the nth data
// line of the FIRST streaming-watch response with one that does not
// decode.
type corruptingTransport struct {
	nth int

	mu   sync.Mutex
	done bool
}

func (c *corruptingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || !strings.Contains(req.URL.RawQuery, "watch=stream") {
		return resp, err
	}
	c.mu.Lock()
	first := !c.done
	c.done = true
	c.mu.Unlock()
	if first {
		resp.Body = &corruptingBody{ReadCloser: resp.Body, br: bufio.NewReader(resp.Body), nth: c.nth}
	}
	return resp, nil
}

// corruptingBody hands its stream on line by line, the nth data line
// replaced.
type corruptingBody struct {
	io.ReadCloser
	br        *bufio.Reader
	nth, seen int
	line      []byte
}

func (b *corruptingBody) Read(p []byte) (int, error) {
	if len(b.line) == 0 {
		line, err := b.br.ReadBytes('\n')
		if bytes.HasPrefix(line, []byte("data:")) {
			if b.seen++; b.seen == b.nth {
				line = []byte("data: {\"version\":\n")
			}
		}
		if len(line) == 0 {
			return 0, err
		}
		b.line = line
	}
	n := copy(p, b.line)
	b.line = b.line[n:]
	return n, nil
}

// TestWatchClientRefetchesUndecodableEvent: a watch client whose stream
// carries a data line that does not decode does not skip that version —
// the stream ends there, the client reconnects with its last epoch, and
// replay installs every version, the refused one included.
func TestWatchClientRefetchesUndecodableEvent(t *testing.T) {
	mgr, err := core.NewManager(core.Config{Timeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mgr.Close() }()
	class := dyn.NewClass("Garbled")
	id, err := class.AddMethod(dyn.MethodSpec{Name: "op0", Result: dyn.Int32T, Distributed: true})
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

	hc := &http.Client{Transport: &corruptingTransport{nth: 2}}
	c, err := Dial(context.Background(), srv.InterfaceURL(), &DialOptions{Watch: true, HTTPClient: hc})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	var mu sync.Mutex
	var installed []uint64
	c.AddViewListener(func() {
		mu.Lock()
		installed = append(installed, c.Versions().Doc)
		mu.Unlock()
	})
	first := c.Versions().Doc

	const renames = 4
	for i := 1; i <= renames; i++ {
		if err := class.RenameMethod(id, fmt.Sprintf("op%d", i)); err != nil {
			t.Fatal(err)
		}
		srv.Publisher().PublishNow()
		srv.Publisher().WaitIdle()
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.Versions().Doc < first+renames && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for v := first + 1; v <= first+renames; v++ {
		if !slices.Contains(installed, v) {
			t.Fatalf("installed versions %v: v%d was never installed", installed, v)
		}
	}
	if st := c.Stats(); st.Reconnects == 0 {
		t.Errorf("stats = %+v: the refused event should have ended the stream", st)
	}
}

// TestCORBAWatcherEvictsPooledConnOnRestart: a watching CORBA client whose
// class server is redeployed under the same store — a fresh class with a
// lower descriptor version, on a new ORB — finds its pooled IIOP
// connection dead at call time, lets it go, and reconnects from the
// freshly published IOR instead of failing on the dead socket forever.
func TestCORBAWatcherEvictsPooledConnOnRestart(t *testing.T) {
	mgr, err := core.NewManager(core.Config{Timeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mgr.Close() }()

	newClass := func(renames int) *dyn.Class {
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

	// First server generation, with an inflated descriptor version.
	class1 := newClass(3)
	srv1, err := mgr.Register(class1, core.TechCORBA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv1.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	srv1.Publisher().PublishNow()
	srv1.Publisher().WaitIdle()

	ctx := context.Background()
	c, err := Dial(ctx, srv1.InterfaceURL(), &DialOptions{Watch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if _, err := c.CallContext(ctx, "op"); err != nil {
		t.Fatalf("pre-restart call: %v", err)
	}

	// "Restart": the server goes away (killing its ORB and the pooled
	// connection) and a fresh generation registers with a lower descriptor
	// version.
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	class2 := newClass(0)
	srv2, err := mgr.Register(class2, core.TechCORBA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv2.CreateInstance(); err != nil {
		t.Fatal(err)
	}

	// A call that finds the connection dead reconnects and succeeds; one
	// that raced the old server's close fails, and the loop retries.
	deadline := time.Now().Add(10 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		v, err := c.CallContext(ctx, "op")
		if err == nil {
			if got := v.Int32(); got != 7 {
				t.Fatalf("post-restart call returned %v", v)
			}
			return
		}
		lastErr = err
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("calls never recovered after the server restart: %v", lastErr)
}
