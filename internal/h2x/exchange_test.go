package h2x

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/exchange.txt from the live exchange")

// exchangeFile is the committed transcript of TestExchangeMatchesTranscript.
const exchangeFile = "testdata/exchange.txt"

// tapConn is one end of an in-memory connection that records every octet
// its owner writes. Writes are queued to a forwarder goroutine, as a
// socket's send buffer would take them: over a bare net.Pipe the two read
// loops, each writing an acknowledgement of the other's SETTINGS, would
// wait on each other forever.
type tapConn struct {
	net.Conn
	mu     sync.Mutex
	out    []byte
	inject []byte // appended to the first write, once
	q      chan []byte
	done   chan struct{}
	once   sync.Once
}

func newTap(nc net.Conn, inject []byte) *tapConn {
	// The queue holds more writes than the exchange makes, so no writer
	// ever waits on the forwarder.
	t := &tapConn{Conn: nc, inject: inject, q: make(chan []byte, 1024), done: make(chan struct{})}
	go func() {
		for {
			select {
			case b := <-t.q:
				_, _ = t.Conn.Write(b)
			case <-t.done:
				return
			}
		}
	}()
	return t
}

func (t *tapConn) Write(p []byte) (int, error) {
	t.mu.Lock()
	b := append(append([]byte(nil), p...), t.inject...)
	t.inject = nil
	t.out = append(t.out, b...)
	t.mu.Unlock()
	select {
	case t.q <- b:
		return len(p), nil
	case <-t.done:
		return 0, net.ErrClosed
	}
}

func (t *tapConn) Close() error {
	t.once.Do(func() { close(t.done) })
	return t.Conn.Close()
}

func (t *tapConn) written() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]byte(nil), t.out...)
}

// pipeListener hands out one connection, then blocks until closed.
type pipeListener struct {
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

func listenOnce(nc net.Conn) *pipeListener {
	l := &pipeListener{ch: make(chan net.Conn, 1), done: make(chan struct{})}
	l.ch <- nc
	return l
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case nc := <-l.ch:
		return nc, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// exchangeStreams names the exchange's streams in the transcript.
var exchangeStreams = map[uint32]string{
	0: "connection control: preface, SETTINGS, their ACKs, a PING's ACK and the connection WINDOW_UPDATE",
	1: "a small POST with headers, and its 200 reply",
	3: "a POST whose body is larger than the 256 KiB frame limit, echoed: several DATA frames each way",
	5: "a GET answered by a bodiless 404 with headers",
	7: "a call cancelled while its handler runs: RST_STREAM",
}

// TestExchangeMatchesTranscript runs a ClientConn against a serverConn
// over an in-memory pipe with an echo handler and compares each
// direction's frames with the committed transcript, which -update
// rewrites. A stream's frames are pinned in order; stream 0's are listed
// apart, per direction, because where they fall among a stream's frames
// depends on scheduling.
func TestExchangeMatchesTranscript(t *testing.T) {
	started := make(chan struct{})
	cancelled := make(chan struct{})
	srv := NewServer(HandlerFunc(func(ctx context.Context, req *Request) *Response {
		switch req.Path {
		case "/hang":
			close(started)
			<-ctx.Done()
			close(cancelled)
			return nil
		case "/missing":
			return &Response{Status: 404, Header: [][2]string{{"content-type", "text/plain"}, {"x-reason", "no such path"}}}
		}
		return &Response{
			Status: 200,
			Header: [][2]string{{"content-type", req.HeaderValue("content-type")}, {"x-echo", req.HeaderValue("x-call")}},
			Body:   req.Body,
		}
	}))
	cEnd, sEnd := net.Pipe()
	ping := appendFrameHeader(nil, 8, framePing, 0, 0)
	ping = append(ping, "h2xping!"...)
	ctap, stap := newTap(cEnd, ping), newTap(sEnd, nil)
	l := listenOnce(stap)
	go srv.acceptLoop(l)
	defer l.Close()
	defer srv.Close()
	c := NewClientConn(ctap)
	defer c.Close()

	ctx := context.Background()
	hdr := [][2]string{{"content-type", "application/x-test"}, {"x-call", "echo"}}
	resp, err := c.Do(ctx, &Request{Method: "POST", Authority: "pipe", Path: "/echo", Header: hdr, Body: []byte("hello h2x")})
	if err != nil || resp.Status != 200 || string(resp.Body) != "hello h2x" {
		t.Fatalf("small POST: %v, %+v", err, resp)
	}
	big := make([]byte, 600_000)
	for i := range big {
		big[i] = byte(i*7 ^ i>>12)
	}
	resp, err = c.Do(ctx, &Request{Method: "POST", Authority: "pipe", Path: "/echo", Header: hdr, Body: big})
	if err != nil || resp.Status != 200 || !bytes.Equal(resp.Body, big) {
		t.Fatalf("large POST: %v, status %d, %d octets", err, resp.Status, len(resp.Body))
	}
	resp, err = c.Do(ctx, &Request{Method: "GET", Authority: "pipe", Path: "/missing"})
	if err != nil || resp.Status != 404 || len(resp.Body) != 0 || resp.HeaderValue("x-reason") != "no such path" {
		t.Fatalf("GET /missing: %v, %+v", err, resp)
	}
	cctx, cancel := context.WithCancel(ctx)
	go func() {
		<-started
		cancel()
	}()
	if _, err := c.Do(cctx, &Request{Method: "POST", Authority: "pipe", Path: "/hang", Body: []byte("x")}); err != context.Canceled {
		t.Fatalf("cancelled call: %v", err)
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("the server never saw the RST_STREAM")
	}

	got := transcript(t, ctap.written(), stap.written())
	if *update {
		if err := os.WriteFile(exchangeFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(exchangeFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s line %d:\n got  %s\n want %s", exchangeFile, i+1, g, w)
			}
		}
	}
}

var frameNames = [...]string{"DATA", "HEADERS", "PRIORITY", "RST_STREAM", "SETTINGS", "PUSH_PROMISE", "PING", "GOAWAY", "WINDOW_UPDATE", "CONTINUATION"}

// transcript renders both directions' octets as one line per frame,
// grouped by stream. A payload of more than 64 octets is given by its
// SHA-256.
func transcript(t *testing.T, c2s, s2c []byte) string {
	t.Helper()
	if !bytes.HasPrefix(c2s, []byte(clientPreface)) {
		t.Fatalf("client octets do not start with the preface: %q", c2s[:min(len(c2s), 24)])
	}
	lines := map[uint32][]string{0: {"c>s preface " + hex.EncodeToString([]byte(clientPreface))}}
	for _, d := range []struct {
		name string
		b    []byte
	}{{"c>s", c2s[len(clientPreface):]}, {"s>c", s2c}} {
		for b := d.b; len(b) > 0; {
			if len(b) < 9 {
				t.Fatalf("%s: %d trailing octets", d.name, len(b))
			}
			n := int(b[0])<<16 | int(b[1])<<8 | int(b[2])
			if len(b) < 9+n {
				t.Fatalf("%s: frame of %d octets cut at %d", d.name, n, len(b)-9)
			}
			typ, id := fmt.Sprintf("type%d", b[3]), uint32(b[5]&0x7f)<<24|uint32(b[6])<<16|uint32(b[7])<<8|uint32(b[8])
			if int(b[3]) < len(frameNames) {
				typ = frameNames[b[3]]
			}
			payload := hex.EncodeToString(b[9 : 9+n])
			if n > 64 {
				sum := sha256.Sum256(b[9 : 9+n])
				payload = "sha256:" + hex.EncodeToString(sum[:])
			}
			line := fmt.Sprintf("%s %s %s %s", d.name, typ, hex.EncodeToString(b[:9]), payload)
			lines[id] = append(lines[id], strings.TrimSpace(line))
			b = b[9+n:]
		}
	}
	ids := make([]uint32, 0, len(lines))
	for id := range lines {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var sb strings.Builder
	sb.WriteString("# internal/h2x: a ClientConn against a serverConn, one line per frame:\n")
	sb.WriteString("# direction, type, the 9-octet frame header, the payload (SHA-256 over 64 octets).\n")
	for _, id := range ids {
		fmt.Fprintf(&sb, "# stream %d: %s\n", id, exchangeStreams[id])
		for _, l := range lines[id] {
			sb.WriteString(l + "\n")
		}
	}
	return sb.String()
}
