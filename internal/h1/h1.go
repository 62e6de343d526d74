// Package h1 posts call bodies as HTTP/1.1 requests on pooled keep-alive
// connections. It is the one client the HTTP call bindings share: SOAP,
// JSON and h2b's plain endpoint. The calling goroutine writes request
// line, headers and body in one Write and reads the whole reply itself:
// no transport goroutines, no header maps, and the call's deadline is the
// connection's. A caller-supplied *http.Client is honoured instead, for a
// proxy, TLS or instrumentation.
//
// Idle connections are not timed out. One its server closed is dropped
// when its endpoint is next taken, and every endpoint's are checked each
// time a call goes to a new one, so a process that moves on from a server
// that went away does not keep its sockets. The check is a peek at the
// socket, made on Unix only (not AIX); elsewhere an idle connection is
// kept until a call finds it dead.
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

// ErrBodyTooLarge reports a reply body over the 16 MiB cap the bindings
// share.
var ErrBodyTooLarge = errors.New("h1: reply body exceeds 16 MiB")

// ceiling bounds a direct call whose context carries no deadline.
var ceiling = 30 * time.Second

const (
	maxBody   = 16 << 20
	maxIdle   = 32       // idle connections kept per endpoint
	maxHeader = 1 << 20  // reply header bytes read before giving up
	maxWBuf   = 64 << 10 // request buffer a connection keeps between calls
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
// (http:// only): ctx's deadline, or a 30 s ceiling when it has none,
// bounds the exchange; cancelling ctx closes the connection. On Unix an
// idle connection is checked before reuse, so one its server closed is
// never written to; a request whose bytes were written is never sent
// again.
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
	ep, c, err := take(rawURL, deadline)
	if err != nil {
		return Reply{Buf: dst}, callErr(ctx, err)
	}
	if c == nil {
		if c, err = dial(ctx, ep.addr, deadline); err != nil {
			put(ep, nil, false)
			return Reply{Buf: dst}, callErr(ctx, err)
		}
	}
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { _ = c.Close() })
	}
	r, reuse, err := c.roundTrip(ep, header, body, dst[:0])
	if stop != nil && !stop() {
		reuse = false // the connection is closed, or closing
	}
	put(ep, c, err == nil && reuse)
	if err != nil {
		return r, callErr(ctx, err)
	}
	return r, nil
}

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

// readAll appends r's bytes to dst up to EOF, failing with ErrBodyTooLarge
// once it has appended more than maxBody.
func readAll(r io.Reader, dst []byte) ([]byte, error) {
	b := bytes.NewBuffer(dst)
	_, err := b.ReadFrom(io.LimitReader(r, maxBody+1))
	if err == nil && b.Len()-len(dst) > maxBody {
		err = ErrBodyTooLarge
	}
	return b.Bytes(), err
}

// An endpoint is a parsed call URL, its idle connections, most recently
// used last, and the number of calls that took it and have not put it
// back.
type endpoint struct {
	addr, host, target string
	idle               []*conn
	calls              int
}

var (
	mu        sync.Mutex // guards endpoints and every idle list
	endpoints = map[string]*endpoint{}
)

// take returns rawURL's endpoint and, if one passes the liveness check,
// an idle connection whose deadline is already set. The caller owes the
// endpoint a put.
func take(rawURL string, deadline time.Time) (*endpoint, *conn, error) {
	mu.Lock()
	defer mu.Unlock()
	ep := endpoints[rawURL]
	if ep == nil {
		sweep()
		u, err := url.Parse(rawURL)
		if err != nil {
			return nil, nil, err
		}
		if u.Scheme != "http" {
			return nil, nil, fmt.Errorf("h1: %s: only http:// calls go direct; supply an *http.Client for %s", rawURL, u.Scheme)
		}
		ep = &endpoint{addr: u.Host, host: u.Host, target: u.RequestURI()}
		if u.Port() == "" {
			ep.addr = net.JoinHostPort(u.Hostname(), "80")
		}
		endpoints[rawURL] = ep
	}
	ep.calls++
	for len(ep.idle) > 0 {
		c := ep.idle[len(ep.idle)-1]
		ep.idle = ep.idle[:len(ep.idle)-1]
		if c.SetDeadline(deadline) == nil && c.alive() {
			return ep, c, nil
		}
		_ = c.Close()
	}
	return ep, nil, nil
}

// put ends a call that took ep: c, if any, is pooled when keep says it
// may carry another call and the pool has room, and closed otherwise.
func put(ep *endpoint, c *conn, keep bool) {
	if keep {
		_ = c.SetDeadline(time.Time{}) // an expired deadline would fail the liveness check
	}
	mu.Lock()
	ep.calls--
	if keep && len(ep.idle) < maxIdle {
		ep.idle = append(ep.idle, c)
		c = nil
	}
	mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
}

// sweep closes every idle connection that fails the liveness check and
// forgets the endpoints left with neither idle connections nor a call
// that will put one back. Caller holds mu.
func sweep() {
	for key, ep := range endpoints {
		live := ep.idle[:0]
		for _, c := range ep.idle {
			if c.alive() {
				live = append(live, c)
			} else {
				_ = c.Close()
			}
		}
		clear(ep.idle[len(live):])
		ep.idle = live
		if len(live) == 0 && ep.calls == 0 {
			delete(endpoints, key)
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
func (c *conn) roundTrip(ep *endpoint, header [][2]string, body, dst []byte) (Reply, bool, error) {
	w := append(c.wbuf[:0], "POST "...)
	w = append(w, ep.target...)
	w = append(w, " HTTP/1.1\r\nHost: "...)
	w = append(w, ep.host...)
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
		if dst, f, err = c.readHeader(dst[:0]); err != nil {
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
				_, _, err = c.readHeader(dst[len(dst):]) // the trailer, into spare room
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

// framing is what a reply header says about the body after it.
type framing struct {
	length         int64 // -1 when not declared
	chunked, close bool
}

// readHeader appends the header lines to dst, without the empty line that
// ends them, and reports the framing they declare.
func (c *conn) readHeader(dst []byte) ([]byte, framing, error) {
	f := framing{length: -1}
	for start := len(dst); ; start = len(dst) {
		frag, err := c.br.ReadSlice('\n') // a line must fit the 4 KiB read buffer
		if err != nil {
			return dst, f, fmt.Errorf("h1: reading reply header: %w", err)
		}
		if dst = append(dst, frag...); len(dst) > maxHeader {
			return dst, f, errors.New("h1: reply header too large")
		}
		line := bytes.TrimRight(dst[start:], "\r\n")
		if len(line) == 0 {
			return dst[:start], f, nil
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return dst, f, fmt.Errorf("h1: malformed header line %q", line)
		}
		value = bytes.TrimSpace(value)
		switch {
		case strings.EqualFold(string(name), "Content-Length"):
			n, err := strconv.ParseInt(string(value), 10, 64)
			if err != nil || n < 0 || (f.length >= 0 && n != f.length) {
				return dst, f, fmt.Errorf("h1: bad Content-Length %q", value)
			}
			f.length = n
		case strings.EqualFold(string(name), "Transfer-Encoding"):
			if !strings.EqualFold(string(value), "chunked") {
				return dst, f, fmt.Errorf("h1: unsupported Transfer-Encoding %q", value)
			}
			f.chunked = true
		case strings.EqualFold(string(name), "Connection"):
			f.close = f.close || bytes.Contains(bytes.ToLower(value), []byte("close"))
		}
	}
}
