package ifsvr

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"
)

// TestShutdownEndsHeldStream: a held SSE watch stream ends with the
// terminal "draining" frame when the server shuts down gracefully, and the
// client helper surfaces it as ErrStreamDraining — the signal to reconnect
// to another replica immediately, without backoff.
func TestShutdownEndsHeldStream(t *testing.T) {
	s, st := newView(t)
	base, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	st.PublishVersioned("/doc", "text/plain", "v1", 1)

	got := make(chan error, 1)
	streaming := make(chan struct{})
	go func() {
		first := true
		got <- WatchStream(context.Background(), nil, base+"/doc", 0, func(ev StreamEvent) {
			if first {
				first = false
				close(streaming)
			}
		})
	}()
	select {
	case <-streaming: // the replayed catch-up event proves the stream is held
	case <-time.After(3 * time.Second):
		t.Fatal("stream never established")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Shutdown blocked %v on a held stream", elapsed)
	}
	select {
	case err := <-got:
		if !errors.Is(err, ErrStreamDraining) {
			t.Fatalf("stream ended with %v, want ErrStreamDraining", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stream never ended after Shutdown")
	}
	if !s.Draining() {
		t.Fatal("Draining() = false after Shutdown")
	}
	_ = s.Close()
}

// TestShutdownRefusesNewConnections: once Shutdown returns, the listener
// no longer accepts work.
func TestShutdownRefusesNewConnections(t *testing.T) {
	s, st := newView(t)
	base, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	st.PublishVersioned("/doc", "text/plain", "v1", 1)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := http.Get(base + "/doc"); err == nil {
		t.Fatal("GET succeeded against a drained server")
	}
	_ = s.Close()
}
