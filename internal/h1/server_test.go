package h1

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"
)

// rawHandler is the raw table's handler: /echo answers with what it read
// of the body, /hello with "hello", /ignore without reading the body,
// /panic panics, /flush flushes its reply between two writes (declared
// close-delimited and typed, as the Interface Server's streams are, so
// net/http writes the same head), /deadline sets a write deadline, and
// any other path is not found.
func rawHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/echo", func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		fmt.Fprintf(w, "got %d: %s %v", len(b), b, err)
	})
	mux.HandleFunc("/hello", func(w http.ResponseWriter, _ *http.Request) { _, _ = io.WriteString(w, "hello") })
	mux.HandleFunc("/ignore", func(w http.ResponseWriter, _ *http.Request) { _, _ = io.WriteString(w, "ignored") })
	mux.HandleFunc("/panic", func(http.ResponseWriter, *http.Request) { panic("handler panic") })
	mux.HandleFunc("/flush", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Transfer-Encoding", "identity")
		w.Header().Set("Content-Type", "text/plain")
		_, _ = io.WriteString(w, "held ")
		if err := http.NewResponseController(w).Flush(); err != nil {
			panic(err)
		}
		_, _ = io.WriteString(w, "reply")
	})
	mux.HandleFunc("/deadline", func(w http.ResponseWriter, _ *http.Request) {
		_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(time.Minute))
		_, _ = io.WriteString(w, "hello")
	})
	return mux
}

// serveH1 serves h on a loopback listener until the test ends.
func serveH1(t testing.TB, h http.Handler) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(ln, h)
	t.Cleanup(func() { _ = s.Close() })
	return s, ln.Addr().String()
}

// serveStd serves h on net/http, quietly, until the test ends.
func serveStd(t testing.TB, h http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, ErrorLog: log.New(io.Discard, "", 0)}
	go func() { _ = s.Serve(ln) }()
	t.Cleanup(func() { _ = s.Close() })
	return ln.Addr().String()
}

var dateLine = regexp.MustCompile(`(?m)^Date: [^\r]*\r$`)

// exchange writes each step on one connection and reads one reply after
// it, for as many steps as want has statuses (a reply to a HEAD step
// has no body). It returns the replies' bytes, Date's value masked, with
// "<closed>" appended when the server closed the connection after the
// last of them.
func exchange(t *testing.T, addr string, steps []string, want []int, closes bool) string {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	var raw bytes.Buffer
	br := bufio.NewReader(io.TeeReader(nc, &raw))
	for i, step := range steps {
		go func() { _, _ = io.WriteString(nc, step) }() // a step may outrun what the server reads
		if i >= len(want) {
			break
		}
		req := &http.Request{Method: strings.Fields(step + " x")[0]}
		resp, err := http.ReadResponse(br, req)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatalf("step %d body: %v", i, err)
		}
		if resp.StatusCode != want[i] {
			t.Fatalf("step %d: status %d, want %d", i, resp.StatusCode, want[i])
		}
	}
	if closes {
		if n, err := br.Read(make([]byte, 1)); n != 0 || err != io.EOF {
			t.Fatalf("%s: the connection stays open (%d, %v)", addr, n, err)
		}
		raw.WriteString("<closed>")
	}
	return string(dateLine.ReplaceAll(raw.Bytes(), []byte("Date: *\r")))
}

func get(path string) string { return "GET " + path + " HTTP/1.1\r\nHost: h\r\n\r\n" }

// TestServeRawConn drives the server over raw connections: each row's
// steps, the statuses of the replies, whether the connection closes, and
// the reply bytes, which net/http's must equal where the row says so.
func TestServeRawConn(t *testing.T) {
	defer log.SetOutput(log.Writer())
	log.SetOutput(io.Discard) // the panic row's stack
	h := rawHandler()
	_, live := serveH1(t, h)
	std := serveStd(t, h)
	// A body the handler leaves unread closes the connection once it is
	// past 256 KiB: up to that, the server reads on through it, as
	// net/http does.
	bigBody := "POST /ignore HTTP/1.1\r\nHost: h\r\nContent-Length: 307200\r\n\r\n" + strings.Repeat("a", 300<<10)
	bigHeader := "GET /hello HTTP/1.1\r\nHost: h\r\nX-Big: " + strings.Repeat("b", 2*maxHeader) + "\r\n\r\n"
	for _, row := range []struct {
		name   string
		steps  []string
		want   []int
		closes bool
		oracle bool
		has    string // a substring of the replies
	}{
		{"keep-alive", []string{get("/hello"), get("/hello"), get("/hello")}, []int{200, 200, 200}, false, true, "hello"},
		{"HTTP/1.0", []string{"GET /hello HTTP/1.0\r\n\r\n"}, []int{200}, true, true, "HTTP/1.0 200 OK"},
		{"HTTP/1.0 keep-alive", []string{"GET /hello HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", get("/hello")},
			[]int{200, 200}, false, true, "Connection: keep-alive"},
		{"Connection: close", []string{"GET /hello HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n"}, []int{200}, true, true, "Connection: close"},
		{"chunked body", []string{"POST /echo HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n2;x=y\r\nde\r\n0\r\nTrailer: t\r\n\r\n", get("/hello")},
			[]int{200, 200}, false, true, "got 5: abcde <nil>"},
		{"declared body", []string{"POST /echo HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nabcde", get("/hello")},
			[]int{200, 200}, false, true, "got 5: abcde <nil>"},
		{"Expect: 100-continue", []string{"POST /echo HTTP/1.1\r\nHost: h\r\nExpect: 100-continue\r\nContent-Length: 5\r\n\r\n", "abcde"},
			[]int{100, 200}, false, true, "HTTP/1.1 100 Continue\r\n\r\n"},
		{"Expect: 100-continue, body not read", []string{"POST /ignore HTTP/1.1\r\nHost: h\r\nExpect: 100-continue\r\nContent-Length: 5\r\n\r\n"},
			[]int{200}, false, true, "Connection: close"}, // net/http then waits for the body it did not ask for
		{"unread body closes", []string{bigBody}, []int{200}, true, true, "Connection: close"},
		{"unread small body", []string{"POST /ignore HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nabcde", get("/hello")},
			[]int{200, 200}, false, true, "hello"},
		{"unread chunked body", []string{"POST /ignore HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n", get("/hello")},
			[]int{200, 200}, false, true, "hello"},
		{"HEAD", []string{"HEAD /hello HTTP/1.1\r\nHost: h\r\n\r\n", get("/hello")}, []int{200, 200}, false, true, "Content-Length: 5"},
		{"unknown path", []string{get("/nowhere")}, []int{404}, false, true, "404 page not found"},
		{"bad request line", []string{"GARBAGE\r\n\r\n"}, []int{400}, true, false, "400 Bad Request"},
		{"signed Content-Length", []string{"POST /echo HTTP/1.1\r\nHost: h\r\nContent-Length: +5\r\n\r\nabcde"},
			[]int{400}, true, false, "400 Bad Request"},
		{"NUL in a header value", []string{"GET /hello HTTP/1.1\r\nHost: h\r\nX-A: a\x00b\r\n\r\n"}, []int{400}, true, false, "400 Bad Request"},
		{"bare CR in a header value", []string{"GET /hello HTTP/1.1\r\nHost: h\r\nX-A: a\rb\r\n\r\n"}, []int{400}, true, false, "400 Bad Request"},
		{"oversize header", []string{bigHeader}, []int{431}, true, true, "431 Request Header Fields Too Large"},
		{"unknown transfer-encoding", []string{"POST /echo HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: gzip\r\n\r\n"},
			[]int{501}, true, false, "501 Not Implemented"},
		{"panic", []string{get("/panic")}, nil, true, true, ""},
		{"flushed reply", []string{get("/flush")}, []int{200}, true, true, "Connection: close\r\n\r\nheld reply"},
		{"flushed reply, HTTP/1.0", []string{"GET /flush HTTP/1.0\r\n\r\n"}, []int{200}, true, true, "HTTP/1.0 200 OK"},
	} {
		t.Run(row.name, func(t *testing.T) {
			got := exchange(t, live, row.steps, row.want, row.closes)
			if !strings.Contains(got, row.has) {
				t.Errorf("replies %q lack %q", got, row.has)
			}
			if want := exchange(t, std, row.steps, row.want, row.closes); row.oracle && got != want {
				t.Errorf("replied\n%q\nnet/http replies\n%q", got, want)
			}
		})
	}
	// A reply under a write deadline closes its connection, where net/http
	// clears the deadline and keeps it.
	if got := exchange(t, live, []string{get("/deadline")}, []int{200}, true); !strings.Contains(got, "Connection: close") {
		t.Errorf("a reply under a write deadline: %q", got)
	}
	// A panic closed its own connection only.
	if got := exchange(t, live, []string{get("/hello")}, []int{200}, false); !strings.HasSuffix(got, "hello") {
		t.Errorf("after the panic: %q", got)
	}
}

// TestServeShutdown: Shutdown closes an idle connection at once, refuses
// new ones, serves the first request of a connection accepted before it,
// lets a reply in progress finish and returns once it has.
func TestServeShutdown(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	s, addr := serveH1(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			entered <- struct{}{}
			<-release
		}
		_, _ = io.WriteString(w, "done")
	}))
	dial := func(path string) (net.Conn, *bufio.Reader) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
		if path != "" {
			_, _ = io.WriteString(nc, get(path))
		}
		return nc, bufio.NewReader(nc)
	}
	closingReply := func(what string, br *bufio.Reader) {
		t.Helper()
		resp, err := http.ReadResponse(br, nil)
		if err != nil || resp.StatusCode != 200 || !resp.Close {
			t.Fatalf("%s: %v, %v; want 200 with Connection: close", what, resp, err)
		}
		if body, _ := io.ReadAll(resp.Body); string(body) != "done" {
			t.Errorf("%s: body %q", what, body)
		}
		if _, err := br.ReadByte(); err != io.EOF {
			t.Errorf("%s: the connection reads %v after the reply, want EOF", what, err)
		}
	}
	// Accepted before the slow request's connection, so before Shutdown,
	// but with its first request still to come.
	fresh, freshR := dial("")
	defer fresh.Close()
	idle, idleR := dial("/fast")
	defer idle.Close()
	if resp, err := http.ReadResponse(idleR, nil); err != nil || resp.StatusCode != 200 {
		t.Fatalf("idle connection's reply: %v, %v", resp, err)
	} else if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	busy, busyR := dial("/slow")
	defer busy.Close()
	<-entered

	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(context.Background()) }()
	if _, err := idleR.ReadByte(); err != io.EOF {
		t.Errorf("the idle connection reads %v, want EOF", err)
	}
	if nc, err := net.Dial("tcp", addr); err == nil {
		nc.Close()
		t.Error("a new connection was accepted during shutdown")
	}
	_, _ = io.WriteString(fresh, get("/fast"))
	closingReply("the first request after Shutdown", freshR)
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned %v with a reply in progress", err)
	default:
	}
	close(release)
	closingReply("the reply in progress", busyR)
	if err := <-shut; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// FuzzServeConn feeds arbitrary bytes to the server on one connection:
// nothing may panic, and every reply must parse as HTTP/1.x.
func FuzzServeConn(f *testing.F) {
	for _, seed := range []string{
		get("/"),
		get("/a") + "POST /b HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n\r\nabc",
		"POST / HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
		"HEAD / HTTP/1.1\r\nHost: h\r\n\r\n",
		"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\nGET / HTTP/1.0\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: h\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\nab",
		"GET /%zz HTTP/1.1\r\nHost: h\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n" + get("/"),
		"\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	_, addr := serveH1(f, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == "HEAD" {
			w.Header().Set("Content-Length", "0") // so that every reply frames itself
			return
		}
		n, err := io.Copy(io.Discard, r.Body)
		fmt.Fprintf(w, "%s %q %d %v", r.Method, r.URL.Path, n, err)
	}))
	f.Fuzz(func(t *testing.T, in []byte) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
		go func() {
			_, _ = nc.Write(in)
			_ = nc.(*net.TCPConn).CloseWrite()
		}()
		out, err := io.ReadAll(nc)
		if err != nil {
			t.Fatalf("reading the replies: %v", err)
		}
		for br := bufio.NewReader(bytes.NewReader(out)); ; {
			if _, err := br.Peek(1); err == io.EOF {
				break
			}
			resp, err := http.ReadResponse(br, nil)
			if err != nil || resp.ProtoMajor != 1 {
				t.Fatalf("a reply does not parse: %v\n%q", err, out)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Fatalf("a reply's body does not parse: %v\n%q", err, out)
			}
		}
	})
}
