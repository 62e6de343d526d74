package h2x

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"
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
	srv := NewServer(HandlerFunc(func(_ context.Context, req *Request) *Response {
		arrived.Done()
		<-release
		return &Response{Status: 200, Body: req.Body}
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := runtime.NumGoroutine()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Do(context.Background(), &Request{Method: "POST", Authority: addr, Path: "/x", Body: []byte("x")}); err != nil {
				t.Error(err)
			}
		}()
	}
	arrived.Wait() // eight handlers run at once
	close(release)
	wg.Wait()
	_ = c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want at most %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
