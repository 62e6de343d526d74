package iiop

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"livedev/internal/cdr"
	"livedev/internal/giop"
)

// TestConnEndReturnsGoroutines serves eight calls at once on one
// connection, so the server runs eight handlers together, then closes the
// client's connection: every goroutine the connection started, on either
// side, must be gone, while the server itself keeps listening.
func TestConnEndReturnsGoroutines(t *testing.T) {
	const calls = 8
	var arrived sync.WaitGroup
	arrived.Add(calls)
	release := make(chan struct{})
	addr, stop := startServer(t, HandlerFunc(func(_ context.Context, h giop.RequestHeader, _ *cdr.Decoder, order cdr.ByteOrder) giop.Message {
		arrived.Done()
		<-release
		msg, _ := giop.EncodeReply(order, giop.ReplyHeader{RequestID: h.RequestID, Status: giop.ReplyNoException}, nil)
		return msg
	}))
	defer stop()
	base := runtime.NumGoroutine()

	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := conn.InvokeInto(context.Background(), []byte("obj"), "wait", cdr.BigEndian, nil,
				func(giop.ReplyHeader, *cdr.Decoder) error { return nil }); err != nil {
				t.Error(err)
			}
		}()
	}
	arrived.Wait() // eight handlers run at once
	close(release)
	wg.Wait()
	_ = conn.Close()
	waitGoroutines(t, base)
}

// waitGoroutines polls until the goroutine count is back at base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want at most %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
