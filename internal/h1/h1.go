// Package h1 is the HTTP/1.1 both ends of an HTTP call run on: the
// client and the server the call bindings share (SOAP, JSON and h2b's
// plain endpoint). The Interface Server serves on it too.
//
// Exchange runs every call the bindings make over HTTP, on Post, which
// sends a call body as a request on a keep-alive connection, pooled by
// server address: every class and binding a client calls on one
// host:port shares one pool.
// The calling goroutine writes request line, headers and body in one
// Write and reads the whole reply itself: no transport goroutines, no
// header maps, and the call's deadline is the connection's. A
// caller-supplied *http.Client is honoured instead, for a proxy, TLS or
// instrumentation.
//
// Idle connections are not timed out. One its server closed is dropped
// when its pool is next taken, and every pool's are checked each time a
// call goes to a new URL, so a process that moves on from a server
// that went away does not keep its sockets. The check is a peek at the
// socket, made on Unix only (not AIX); elsewhere an idle connection is
// kept until a call finds it dead.
//
// Serve runs an http.Handler on a listener: the call endpoints (the
// manager's SOAP, JSON, H2B-http and /metrics mux, and internal/static's
// Table 1 control, which read a call's body with ReadBody under the
// 16 MiB cap Post holds a reply to) and the Interface Server serve on it.
// One goroutine per connection reads each request into state the
// connection reuses, calls the handler with a reused *http.Request and a
// ResponseWriter that holds the reply back until the handler returns, and
// writes status line, header and body in one write (writev for a body
// over 4 KiB). It keeps what net/http does that a client can see:
// keep-alive, HTTP/1.0 with and without keep-alive, Connection: close,
// Content-Length and chunked request bodies, Expect: 100-continue, HEAD, a
// 10 s header timeout and a 1 MiB header cap (400, 431 and 501 close the
// connection, as does a bad Content-Length or a control character in a
// header value), a handler panic closing its own connection only, reading
// on through up to 256 KiB of a body the handler left unread, and the
// reply head net/http writes for the same handler calls. A body the
// handler did not declare goes out with its length, not chunked; one it
// flushes (the Interface Server's watch streams) runs to the close. A
// request's context reports context.Canceled from Err once the peer has
// gone: on Unix by a non-blocking peek when Err is asked, elsewhere by a
// background read started once the body is read, as net/http does, which
// can learn of the departure late. It is cancelled when its connection
// closes, not as each handler returns, or, for a flushed reply, by a
// background read as the peer hangs up. A request or header line must fit
// the 4 KiB read buffer (431 otherwise). The server does not do TLS,
// HTTP/2 (h2c), upgrades, Hijack, informational replies or request
// trailers.
package h1

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrBodyTooLarge reports a call body, request or reply, over the 16 MiB
// cap the bindings share.
var ErrBodyTooLarge = errors.New("h1: message body exceeds 16 MiB")

// ceiling bounds a direct call whose context carries no deadline.
var ceiling = 30 * time.Second

const (
	maxBody   = 16 << 20
	maxIdle   = 32       // idle connections kept per server address
	maxHeader = 1 << 20  // header bytes read before giving up, either half
	maxWBuf   = 64 << 10 // request buffer a connection keeps between calls
	maxXBuf   = 1 << 20  // call buffer an exchange keeps between calls
)

// Reply is one HTTP reply. Its body, and the header lines of a direct
// call, live in Buf.
type Reply struct {
	Status int
	Body   []byte
	// Buf is the dst Post was given, grown to hold the reply: recycle it
	// once Body is dead.
	Buf    []byte
	head   []byte      // raw header lines of a direct call
	header http.Header // a supplied client's reply header
}

// Header returns the first value of the named reply header, "" if absent.
func (r Reply) Header(name string) string {
	if r.header != nil {
		return r.header.Get(name)
	}
	for h := r.head; len(h) > 0; {
		line, rest, _ := bytes.Cut(h, []byte("\n"))
		h = rest
		if k, v, ok := bytes.Cut(line, []byte(":")); ok && strings.EqualFold(string(k), name) {
			return string(bytes.TrimSpace(v))
		}
	}
	return ""
}

// Post sends body to rawURL as an HTTP/1.1 POST carrying the given header
// lines, and reads the whole reply into dst[:0], which may alias body.
//
// With hc nil the call is direct, on a pooled keep-alive connection
// (http:// only, no environment proxy): ctx's deadline, or a 30 s ceiling
// when it has none, bounds the exchange; cancelling ctx closes the
// connection. On Unix an idle connection is checked before reuse, so one
// its server closed is never written to; a request whose bytes were
// written is never sent again.
// Otherwise hc carries the call and its own timeouts apply.
func Post(ctx context.Context, hc *http.Client, rawURL string, header [][2]string, body, dst []byte) (Reply, error) {
	for _, h := range header {
		if strings.ContainsAny(h[1], "\r\n") {
			return Reply{Buf: dst}, fmt.Errorf("h1: header %s carries a line break", h[0])
		}
	}
	if hc != nil {
		return postVia(ctx, hc, rawURL, header, body, dst)
	}
	if err := ctx.Err(); err != nil {
		return Reply{Buf: dst}, err
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Now().Add(ceiling)
	}
	rt, p, c, err := take(rawURL, deadline)
	if err != nil {
		return Reply{Buf: dst}, callErr(ctx, err)
	}
	if c == nil {
		if c, err = dial(ctx, rt.addr, deadline); err != nil {
			put(p, nil, false)
			return Reply{Buf: dst}, callErr(ctx, err)
		}
	}
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { _ = c.Close() })
	}
	r, reuse, err := c.roundTrip(rt, header, body, dst[:0])
	if stop != nil && !stop() {
		reuse = false // the connection is closed, or closing
	}
	put(p, c, err == nil && reuse)
	if err != nil {
		return r, callErr(ctx, err)
	}
	return r, nil
}

// Exchange is one call over Post, with a binding's codec: encode appends
// the request body to a pooled buffer and its header lines to a pooled
// list, and decode reads the reply, which lands in that buffer. The
// buffer is recycled when decode returns, so decode copies what it keeps.
// A failure to carry the call is wrapped once, naming rawURL; encode's
// and decode's errors come back as they are.
func Exchange(ctx context.Context, hc *http.Client, rawURL string,
	encode func(body []byte, header [][2]string) ([]byte, [][2]string, error),
	decode func(Reply) error) error {
	x := callBufs.Get().(*callBuf)
	body, header, err := encode(x.buf[:0], x.header[:0])
	if err == nil {
		var r Reply
		r, err = Post(ctx, hc, rawURL, header, body, body[:0])
		if body = r.Buf; err != nil {
			err = fmt.Errorf("h1: posting to %s: %w", rawURL, err)
		} else {
			err = decode(r)
		}
	}
	clear(header) // the pool keeps no header value alive
	if cap(body) <= maxXBuf {
		x.buf, x.header = body[:0], header[:0]
		callBufs.Put(x)
	}
	return err
}

// callBuf is a call's buffer and header list, pooled across Exchanges.
type callBuf struct {
	buf    []byte
	header [][2]string
}

var callBufs = sync.Pool{New: func() any { return new(callBuf) }}

// callErr names a direct call's failure by its cause: the caller's
// context, or the ceiling.
func callErr(ctx context.Context, err error) error {
	_, hasDeadline := ctx.Deadline()
	switch {
	case ctx.Err() != nil:
		return fmt.Errorf("%w (%v)", ctx.Err(), err)
	case hasDeadline && errors.Is(err, os.ErrDeadlineExceeded):
		return fmt.Errorf("%w (%v)", context.DeadlineExceeded, err)
	case errors.Is(err, os.ErrDeadlineExceeded):
		return fmt.Errorf("h1: no reply within %v: %w", ceiling, err)
	}
	return err
}

// postVia is the adapter for a caller-supplied client.
func postVia(ctx context.Context, hc *http.Client, rawURL string, header [][2]string, body, dst []byte) (Reply, error) {
	// The transport may go on reading a request body after Do returns (a
	// reply that overtakes the upload), so it gets bytes of its own.
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rawURL, bytes.NewReader(append([]byte(nil), body...)))
	if err != nil {
		return Reply{Buf: dst}, err
	}
	for _, h := range header {
		req.Header.Set(h[0], h[1])
	}
	resp, err := hc.Do(req)
	if err != nil {
		return Reply{Buf: dst}, err
	}
	defer func() { _ = resp.Body.Close() }()
	dst, err = readAll(resp.Body, dst[:0])
	return Reply{Status: resp.StatusCode, Body: dst, Buf: dst, header: resp.Header}, err
}

// ReadBody reads a request body whole into dst[:0]: the server-side twin
// of the reply read Post makes, under the same cap. declared is the
// request's Content-Length, -1 when unknown. It is only a claim, so it
// buys at most 1 MiB of room up front; past that dst grows as bytes
// arrive.
func ReadBody(dst []byte, r io.Reader, declared int64) ([]byte, error) {
	if declared > maxBody {
		return dst[:0], ErrBodyTooLarge
	}
	if declared > 0 {
		dst = slices.Grow(dst[:0], int(min(declared, 1<<20))+bytes.MinRead)
	}
	return readAll(r, dst[:0])
}

// readAll appends r's bytes to dst up to EOF, failing with ErrBodyTooLarge
// once it has appended more than maxBody.
func readAll(r io.Reader, dst []byte) ([]byte, error) {
	start := len(dst)
	for {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, bytes.MinRead)
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		switch {
		case len(dst)-start > maxBody:
			return dst, ErrBodyTooLarge
		case err == io.EOF:
			return dst, nil
		case err != nil:
			return dst, err
		}
	}
}

// A route is a parsed call URL: the server address its connections are
// pooled under, and the Host header and request target it writes.
type route struct {
	addr, host, target string
}

// A pool is one server address's idle connections, most recently used
// last, and the number of calls that took it and have not put it back.
// Every URL on one host:port shares it.
type pool struct {
	idle  []*conn
	calls int
}

var (
	mu     sync.Mutex           // guards routes, pools and every idle list
	routes = map[string]route{} // call URL → route
	pools  = map[string]*pool{} // host:port → pool
)

// take returns rawURL's route and its address's pool and, if one passes
// the liveness check, an idle connection whose deadline is already set.
// The caller owes the pool a put.
func take(rawURL string, deadline time.Time) (route, *pool, *conn, error) {
	mu.Lock()
	defer mu.Unlock()
	rt, ok := routes[rawURL]
	if !ok {
		sweep()
		u, err := url.Parse(rawURL)
		if err != nil {
			return rt, nil, nil, err
		}
		if u.Scheme != "http" {
			return rt, nil, nil, fmt.Errorf("h1: %s: only http:// calls go direct; supply an *http.Client for %s", rawURL, u.Scheme)
		}
		rt = route{addr: u.Host, host: u.Host, target: u.RequestURI()}
		if u.Port() == "" {
			rt.addr = net.JoinHostPort(u.Hostname(), "80")
		}
		routes[rawURL] = rt
	}
	p := pools[rt.addr]
	if p == nil {
		p = &pool{}
		pools[rt.addr] = p
	}
	p.calls++
	for len(p.idle) > 0 {
		c := p.idle[len(p.idle)-1]
		p.idle = p.idle[:len(p.idle)-1]
		if c.SetDeadline(deadline) == nil && c.alive() {
			return rt, p, c, nil
		}
		_ = c.Close()
	}
	return rt, p, nil, nil
}

// put ends a call that took p: c, if any, is pooled when keep says it
// may carry another call and the pool has room, and closed otherwise.
func put(p *pool, c *conn, keep bool) {
	if keep {
		_ = c.SetDeadline(time.Time{}) // an expired deadline would fail the liveness check
	}
	mu.Lock()
	p.calls--
	if keep && len(p.idle) < maxIdle {
		p.idle = append(p.idle, c)
		c = nil
	}
	mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
}

// sweep closes every idle connection that fails the liveness check,
// forgets the pools left with neither idle connections nor a call that
// will put one back, and the routes to them. Caller holds mu.
func sweep() {
	for addr, p := range pools {
		live := p.idle[:0]
		for _, c := range p.idle {
			if c.alive() {
				live = append(live, c)
			} else {
				_ = c.Close()
			}
		}
		clear(p.idle[len(live):])
		p.idle = live
		if len(live) == 0 && p.calls == 0 {
			delete(pools, addr)
		}
	}
	for u, rt := range routes {
		if pools[rt.addr] == nil {
			delete(routes, u)
		}
	}
}

func dial(ctx context.Context, addr string, deadline time.Time) (*conn, error) {
	nc, err := (&net.Dialer{Deadline: deadline}).DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	_ = nc.SetDeadline(deadline)
	c := &conn{Conn: nc, br: bufio.NewReader(nc)}
	c.peeker.init(nc)
	return c, nil
}

// conn is one keep-alive connection, used by one call at a time.
type conn struct {
	net.Conn
	peeker
	br   *bufio.Reader
	wbuf []byte
}

// roundTrip writes the request in one Write and reads the whole reply
// into dst. It reports whether the connection may carry another call.
func (c *conn) roundTrip(rt route, header [][2]string, body, dst []byte) (Reply, bool, error) {
	w := append(c.wbuf[:0], "POST "...)
	w = append(w, rt.target...)
	w = append(w, " HTTP/1.1\r\nHost: "...)
	w = append(w, rt.host...)
	for _, h := range header {
		w = append(w, "\r\n"...)
		w = append(w, h[0]...)
		w = append(w, ": "...)
		w = append(w, h[1]...)
	}
	w = append(w, "\r\nContent-Length: "...)
	w = strconv.AppendInt(w, int64(len(body)), 10)
	w = append(w, "\r\n\r\n"...)
	w = append(w, body...)
	if cap(w) <= maxWBuf {
		c.wbuf = w
	}
	if _, err := c.Write(w); err != nil {
		return Reply{Buf: dst}, false, err
	}
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return Reply{Buf: dst}, false, fmt.Errorf("h1: reading status line: %w", err)
		}
		// "HTTP/1.x NNN reason\r\n"
		status := 0
		if len(line) >= 13 && bytes.HasPrefix(line, []byte("HTTP/1.")) && line[8] == ' ' {
			status, _ = strconv.Atoi(string(line[9:12]))
		}
		if status < 100 {
			return Reply{Buf: dst}, false, fmt.Errorf("h1: malformed status line %q", line)
		}
		keep := line[7] == '1'
		var f framing
		if dst, f, err = readHeader(c.br, dst[:0]); err != nil {
			return Reply{Buf: dst}, false, err
		}
		if status < 200 && status != http.StatusSwitchingProtocols {
			continue // an informational reply precedes the real one
		}
		head := len(dst)
		switch {
		case status < 200 || status == http.StatusNoContent || status == http.StatusNotModified:
		case f.chunked:
			if dst, err = readAll(httputil.NewChunkedReader(c.br), dst); err == nil {
				_, _, err = readHeader(c.br, dst[len(dst):]) // the trailer, into spare room
			}
		case f.length > maxBody:
			err = ErrBodyTooLarge
		case f.length >= 0:
			dst = slices.Grow(dst, int(f.length))[:head+int(f.length)]
			_, err = io.ReadFull(c.br, dst[head:])
		default: // delimited by the server closing the connection
			f.close = true
			dst, err = readAll(c.br, dst)
		}
		r := Reply{Status: status, Body: dst[head:], Buf: dst, head: dst[:head]}
		return r, keep && !f.close && c.br.Buffered() == 0, err
	}
}

// framing is what a header says about the body after it.
type framing struct {
	length         int64 // -1 when not declared
	chunked, close bool
}

var (
	errHeaderTooLarge = errors.New("h1: header too large")
	errBadHeader      = errors.New("h1: malformed header")
	errTE             = errors.New("h1: unsupported Transfer-Encoding")
)

// readHeader appends the header lines br holds to dst, without the empty
// line that ends them, and reports the framing they declare. Both halves
// read with it: a reply's header, a request's, a chunked body's trailer.
func readHeader(br *bufio.Reader, dst []byte) ([]byte, framing, error) {
	f := framing{length: -1}
	for start := len(dst); ; start = len(dst) {
		frag, err := br.ReadSlice('\n') // a line must fit the 4 KiB read buffer
		if err == bufio.ErrBufferFull {
			return dst, f, errHeaderTooLarge
		} else if err != nil {
			return dst, f, fmt.Errorf("h1: reading header: %w", err)
		}
		if dst = append(dst, frag...); len(dst) > maxHeader {
			return dst, f, errHeaderTooLarge
		}
		line := bytes.TrimRight(dst[start:], "\r\n")
		if len(line) == 0 {
			return dst[:start], f, nil
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return dst, f, fmt.Errorf("%w line %q", errBadHeader, line)
		}
		value = bytes.TrimSpace(value)
		switch {
		case strings.EqualFold(string(name), "Content-Length"):
			n, err := strconv.ParseUint(string(value), 10, 63) // digits only: no sign
			if err != nil || (f.length >= 0 && int64(n) != f.length) {
				return dst, f, fmt.Errorf("%w: Content-Length %q", errBadHeader, value)
			}
			f.length = int64(n)
		case strings.EqualFold(string(name), "Transfer-Encoding"):
			if f.chunked || !strings.EqualFold(string(value), "chunked") {
				return dst, f, fmt.Errorf("%w %q", errTE, value)
			}
			f.chunked = true
		case strings.EqualFold(string(name), "Connection"):
			f.close = f.close || bytes.Contains(bytes.ToLower(value), []byte("close"))
		}
	}
}
