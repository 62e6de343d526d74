package h1

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// rowServer is a plain net/http server that counts the connections it
// accepts and the requests it answers. Its second request goes to the
// row's handler; every other one is answered "ok".
type rowServer struct {
	addr  string
	row   http.HandlerFunc
	conns atomic.Int32
	reqs  atomic.Int32
	srv   *http.Server
}

// start listens on s.addr ("127.0.0.1:0" the first time, the same address
// after a restart) and serves in the background.
func (s *rowServer) start(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", s.addr)
	if err != nil {
		t.Fatal(err)
	}
	s.addr = ln.Addr().String()
	s.srv = &http.Server{Handler: s, ConnState: func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			s.conns.Add(1)
		}
	}}
	go func() { _ = s.srv.Serve(ln) }()
}

func (s *rowServer) url() string { return "http://" + s.addr + "/call" }

func (s *rowServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.reqs.Add(1) == 2 {
		s.row(w, r)
		return
	}
	_, _ = io.Copy(io.Discard, r.Body)
	_, _ = io.WriteString(w, "ok")
}

func idleConns(url string) int {
	mu.Lock()
	defer mu.Unlock()
	if ep := endpoints[url]; ep != nil {
		return len(ep.idle)
	}
	return 0
}

// TestKeepAliveRobustness drives each row through three calls on one
// endpoint: a plain call that pools a connection, the row's call, and a
// plain call again. The pool after the row's call, and the server's
// connection count after the last, say whether the row's connection was
// kept or dropped.
func TestKeepAliveRobustness(t *testing.T) {
	arrived := make(chan struct{}, 1)
	other := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	defer other.Close()
	for _, tc := range []struct {
		name    string
		row     http.HandlerFunc
		restart bool // restart the server on its address before the row's call
		move    bool // close the server and serve the row's call and the last on a new address
		cancel  bool // cancel the row's call once its handler runs
		body    string
		err     error // errors.Is target; nil when the call must succeed
		idle    int   // connections pooled after the row's call
		conns   int32 // connections the three calls took
	}{
		{name: "server restarted on the same address", restart: true, body: "ok", idle: 1, conns: 2,
			row: func(w http.ResponseWriter, _ *http.Request) { _, _ = io.WriteString(w, "ok") }},
		{name: "server gone, calls move to a new address", move: true, body: "ok", idle: 1, conns: 2,
			row: func(w http.ResponseWriter, _ *http.Request) { _, _ = io.WriteString(w, "ok") }},
		{name: "call to a new endpoint while this one's is in flight", body: "ok", idle: 1, conns: 1,
			row: func(w http.ResponseWriter, r *http.Request) {
				if _, err := Post(r.Context(), nil, other.URL, nil, nil, nil); err != nil {
					_, _ = io.WriteString(w, err.Error())
					return
				}
				_, _ = io.WriteString(w, "ok")
			}},
		{name: "connection closed after the request is read", err: io.EOF, idle: 0, conns: 2,
			row: func(w http.ResponseWriter, r *http.Request) {
				_, _ = io.Copy(io.Discard, r.Body)
				c, _, err := w.(http.Hijacker).Hijack()
				if err == nil {
					_ = c.Close()
				}
			}},
		{name: "chunked reply", body: "chunked", idle: 1, conns: 1,
			row: func(w http.ResponseWriter, _ *http.Request) {
				_, _ = io.WriteString(w, "chu")
				w.(http.Flusher).Flush()
				_, _ = io.WriteString(w, "nked")
			}},
		{name: "Connection: close reply", body: "last", idle: 0, conns: 2,
			row: func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Connection", "close")
				_, _ = io.WriteString(w, "last")
			}},
		{name: "declared reply over the cap", err: ErrBodyTooLarge, idle: 0, conns: 2,
			row: func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Length", strconv.Itoa(maxBody+1))
				_, _ = w.Write(make([]byte, maxBody+1))
			}},
		{name: "chunked reply over the cap", err: ErrBodyTooLarge, idle: 0, conns: 2,
			row: func(w http.ResponseWriter, _ *http.Request) {
				w.(http.Flusher).Flush()
				_, _ = w.Write(make([]byte, maxBody+1))
			}},
		{name: "context cancelled mid-call", cancel: true, err: context.Canceled, idle: 0, conns: 2,
			row: func(_ http.ResponseWriter, r *http.Request) {
				arrived <- struct{}{}
				<-r.Context().Done()
			}},
		{name: "informational reply first", body: "after 103", idle: 1, conns: 1,
			row: func(w http.ResponseWriter, _ *http.Request) {
				w.WriteHeader(http.StatusEarlyHints)
				_, _ = io.WriteString(w, "after 103")
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &rowServer{addr: "127.0.0.1:0", row: tc.row}
			s.start(t)
			t.Cleanup(func() { _ = s.srv.Close() })
			call := func(ctx context.Context) (Reply, error) {
				return Post(ctx, nil, s.url(), [][2]string{{"Content-Type", "text/plain"}}, []byte("call"), nil)
			}
			if r, err := call(context.Background()); err != nil || string(r.Body) != "ok" {
				t.Fatalf("first call: %q, %v", r.Body, err)
			}
			first := s.url()
			if tc.restart || tc.move {
				_ = s.srv.Close()
				if tc.move {
					s.addr = "127.0.0.1:0"
				}
				s.start(t)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancel {
				go func() {
					<-arrived
					cancel()
				}()
			}
			r, err := call(ctx)
			switch {
			case tc.err == nil && (err != nil || string(r.Body) != tc.body):
				t.Fatalf("row call: %q, %v; want %q", r.Body, err, tc.body)
			case tc.err != nil && !errors.Is(err, tc.err):
				t.Fatalf("row call: %v, want an error matching %v", err, tc.err)
			}
			if got := idleConns(s.url()); got != tc.idle {
				t.Errorf("%d connections pooled after the row's call, want %d", got, tc.idle)
			}
			if tc.move {
				mu.Lock()
				_, kept := endpoints[first]
				mu.Unlock()
				if kept {
					t.Errorf("the endpoint of the server that went away is still pooled")
				}
			}
			if r, err := call(context.Background()); err != nil || string(r.Body) != "ok" {
				t.Fatalf("last call: %q, %v", r.Body, err)
			}
			if got := s.reqs.Load(); got != 3 {
				t.Errorf("the server answered %d requests for three calls, want 3", got)
			}
			if got := s.conns.Load(); got != tc.conns {
				t.Errorf("three calls took %d connections, want %d", got, tc.conns)
			}
		})
	}
}

// TestReplyHeader reads reply headers from both clients.
func TestReplyHeader(t *testing.T) {
	s := &rowServer{addr: "127.0.0.1:0", row: func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Echo", r.Header.Get("X-Call"))
		w.WriteHeader(http.StatusAccepted)
		_, _ = io.WriteString(w, "body")
	}}
	s.start(t)
	t.Cleanup(func() { _ = s.srv.Close() })
	for _, hc := range []*http.Client{nil, {}} {
		s.reqs.Store(1) // the next request goes to the row's handler
		r, err := Post(context.Background(), hc, s.url(), [][2]string{{"X-Call", "v 1"}}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != http.StatusAccepted || string(r.Body) != "body" || r.Header("x-echo") != "v 1" || r.Header("X-Absent") != "" {
			t.Errorf("client %v: HTTP %d, body %q, X-Echo %q", hc, r.Status, r.Body, r.Header("X-Echo"))
		}
		if !bytes.HasSuffix(r.Buf, r.Body) {
			t.Errorf("client %v: the body is not in Buf", hc)
		}
	}
	if _, err := Post(context.Background(), nil, "https://"+s.addr+"/call", nil, nil, nil); err == nil {
		t.Error("an https:// call went direct")
	}
	if _, err := Post(context.Background(), nil, s.url(), [][2]string{{"X-Call", "a\r\nX-Smuggled: 1"}}, nil, nil); err == nil {
		t.Error("a header value with a line break was sent")
	}
}

// TestConcurrentCallsSharePool: callers on several goroutines share one
// endpoint's pool; no connection carries two calls at once, and the pool
// never holds more connections than were ever in use together.
func TestConcurrentCallsSharePool(t *testing.T) {
	s := &rowServer{addr: "127.0.0.1:0"}
	s.start(t)
	t.Cleanup(func() { _ = s.srv.Close() })
	s.reqs.Store(2) // past the row: every call is answered "ok"
	const callers, calls = 8, 50
	var wg sync.WaitGroup
	for g := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range calls {
				r, err := Post(context.Background(), nil, s.url(), nil, []byte("call"), nil)
				if err != nil || string(r.Body) != "ok" {
					t.Errorf("caller %d call %d: %q, %v", g, i, r.Body, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if conns, idle := s.conns.Load(), idleConns(s.url()); conns > callers || int32(idle) != conns {
		t.Errorf("%d callers took %d connections and left %d idle", callers, conns, idle)
	}
}
