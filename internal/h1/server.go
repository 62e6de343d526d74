package h1

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const readHeaderTimeout = 10 * time.Second // for one request's line and headers

// failure is a request the server answers with this status, then closes on.
type failure int

func (f failure) Error() string { return strconv.Itoa(int(f)) + " " + http.StatusText(int(f)) }

// Server serves one http.Handler on a listener's connections.
type Server struct {
	h       http.Handler
	ln      net.Listener
	done    chan struct{}  // closed when the accept loop returns
	live    sync.WaitGroup // one per open connection
	closing atomic.Bool
	mu      sync.Mutex
	conns   map[*srvConn]bool // true while idle between requests
}

// Serve accepts connections on ln and serves h on each, in the
// background, until Shutdown or Close.
func Serve(ln net.Listener, h http.Handler) *Server {
	s := &Server{h: h, ln: ln, conns: map[*srvConn]bool{}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for {
			nc, err := ln.Accept()
			if err != nil && !errors.Is(err, net.ErrClosed) {
				time.Sleep(10 * time.Millisecond) // out of descriptors, say
			} else if err != nil || !s.add(nc) {
				return
			}
		}
	}()
	return s
}

// add starts serving nc, unless the server is closing.
func (s *Server) add(nc net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing.Load() {
		_ = nc.Close()
		return false
	}
	c := &srvConn{s: s, nc: nc, br: bufio.NewReader(nc), hdr: http.Header{}, remote: nc.RemoteAddr().String()}
	c.body.c, c.w.c, c.w.hdr, c.ctx.c = c, c, http.Header{}, c
	c.ctx.Context, c.ctx.cancel = context.WithCancel(context.Background())
	c.req = new(http.Request).WithContext(&c.ctx)
	c.base = *c.req
	c.watcher.init(nc)
	s.conns[c] = false
	s.live.Add(1)
	go c.serve()
	return true
}

// Shutdown stops accepting and closes idle connections. A connection
// serving a request, or yet to send its first, closes after that reply
// (or when its header times out). Shutdown waits for them, bounded by ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.stop(false)
	quiet := make(chan struct{})
	go func() { s.live.Wait(); close(quiet) }()
	select {
	case <-quiet:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close closes the listener and every connection, and waits for the
// accept loop to return; running handlers are not waited for.
func (s *Server) Close() error {
	err := s.stop(true)
	<-s.done
	return err
}

func (s *Server) stop(all bool) (err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closing.Swap(true) {
		err = s.ln.Close()
	}
	for c, idle := range s.conns {
		if all || idle {
			_ = c.nc.Close()
		}
	}
	return err
}

// track records that c begins or ends a request, and reports whether it
// may go on: once the server is closing, a connection serves only its
// first request.
func (s *Server) track(c *srvConn, begin bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conns[c] = !begin
	return !s.closing.Load() || begin && !c.served
}

// srvConn is one served connection and the state its requests reuse.
type srvConn struct {
	s      *Server
	nc     net.Conn
	br     *bufio.Reader
	remote string
	served bool // a request was served
	watcher
	hb   []byte   // the request head as read
	vals []string // backs the request header's values
	hdr  http.Header
	url  url.URL
	base http.Request // the zero request on ctx: each request starts as a copy
	req  *http.Request
	ctx  reqCtx
	body body
	w    response
	out  []byte
}

// reqCtx is the context of a connection's requests. Err asks the socket
// whether the peer has gone, and cancels it if so; it is cancelled too
// when the connection closes, but not as each handler returns.
type reqCtx struct {
	context.Context
	cancel context.CancelFunc
	c      *srvConn
}

func (x *reqCtx) Err() error {
	if x.Context.Err() == nil && !x.c.w.held && x.c.peerGone(x.c.br) {
		x.cancel()
	}
	return x.Context.Err()
}

func (c *srvConn) serve() {
	defer func() {
		c.ctx.cancel()
		_ = c.nc.Close()
		c.s.mu.Lock()
		delete(c.s.conns, c)
		c.s.mu.Unlock()
		c.s.live.Done()
	}()
	_ = c.nc.SetReadDeadline(time.Now().Add(readHeaderTimeout)) // for the first request
	for armed := true; ; c.served, armed = true, false {
		if _, err := c.br.Peek(1); err != nil || !c.s.track(c, true) {
			return
		}
		// A head that has arrived whole cannot stall, so it needs no
		// deadline: a kept-alive call costs no timer updates.
		if b, _ := c.br.Peek(c.br.Buffered()); !armed && !bytes.Contains(b, []byte("\r\n\r\n")) {
			_ = c.nc.SetReadDeadline(time.Now().Add(readHeaderTimeout))
			armed = true
		}
		err := c.readRequest()
		if armed {
			_ = c.nc.SetReadDeadline(time.Time{})
		}
		if f, ok := err.(failure); ok {
			_, _ = io.WriteString(c.nc, "HTTP/1.1 "+f.Error()+
				"\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n"+f.Error())
			c.linger()
		} else if err == nil {
			if err = c.serveRequest(); err != nil && c.body.err != io.EOF {
				c.linger()
			}
		}
		if !c.s.track(c, false) || err != nil {
			return
		}
	}
}

// linger lets the peer read a reply before a connection closes with its
// request unread: closed with bytes unread, the socket would reset, and
// the reset can overtake the reply. It reads on for at most 500 ms.
func (c *srvConn) linger() {
	if tc, ok := c.nc.(*net.TCPConn); ok && tc.CloseWrite() == nil {
		_ = c.nc.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
		_, _ = io.Copy(io.Discard, c.nc)
	}
}

// readRequest reads a request's line and headers into c.req and frames
// its body.
func (c *srvConn) readRequest() error {
	first, err := c.br.ReadSlice('\n')
	c.hb = append(c.hb[:0], first...)
	var f framing
	if err == nil {
		c.hb, f, err = readHeader(c.br, c.hb)
	} else if err == bufio.ErrBufferFull {
		err = errHeaderTooLarge
	}
	bad := failure(http.StatusBadRequest)
	switch {
	case errors.Is(err, errHeaderTooLarge):
		return failure(http.StatusRequestHeaderFieldsTooLarge)
	case errors.Is(err, errTE):
		return failure(http.StatusNotImplemented)
	case errors.Is(err, errBadHeader):
		return bad
	case err != nil:
		return err
	}
	line, rest, _ := strings.Cut(string(c.hb), "\n")
	method, line, ok1 := strings.Cut(strings.TrimSuffix(line, "\r"), " ")
	target, proto, ok2 := strings.Cut(line, " ")
	major, minor, ok3 := http.ParseHTTPVersion(proto)
	if !ok1 || !ok2 || !ok3 || major != 1 || !isToken(method) || target == "" {
		return bad
	}
	if target[0] == '/' && !strings.ContainsAny(target, "%#?") {
		c.url = url.URL{Path: target}
	} else if u, err := url.ParseRequestURI(target); err == nil {
		c.url = *u
	} else {
		return bad
	}
	*c.req, c.vals = c.base, c.vals[:0]
	clear(c.hdr)
	r := c.req
	for rest != "" {
		line, rest, _ = strings.Cut(rest, "\n")
		name, value, _ := strings.Cut(strings.TrimSuffix(line, "\r"), ":")
		if value = strings.Trim(value, " \t"); !isToken(name) || strings.ContainsFunc(value, isCTL) {
			return bad
		}
		if name = http.CanonicalHeaderKey(name); name == "Host" {
			r.Host = value
		} else if c.vals = append(c.vals, value); c.hdr[name] == nil {
			c.hdr[name] = c.vals[len(c.vals)-1:][:1:1]
		} else {
			c.hdr[name] = append(c.hdr[name], value)
		}
	}
	conn := c.hdr.Get("Connection")
	r.Method, r.URL, r.Proto, r.ProtoMajor, r.ProtoMinor, r.Header = method, &c.url, proto, 1, minor, c.hdr
	r.RequestURI, r.RemoteAddr, r.Body = target, c.remote, &c.body
	r.Close = hasToken(conn, "close") || minor == 0 && !hasToken(conn, "keep-alive")
	c.body = body{c: c, n: f.length, cont: minor > 0 && strings.EqualFold(c.hdr.Get("Expect"), "100-continue")}
	switch {
	case f.chunked:
		delete(c.hdr, "Content-Length")
		r.ContentLength, r.TransferEncoding = -1, []string{"chunked"}
		c.body.chunked = httputil.NewChunkedReader(c.br)
	case f.length > 0:
		r.ContentLength = f.length
	default:
		r.Body, c.body.err = http.NoBody, io.EOF
		c.watch(c.br)
	}
	return nil
}

// serveRequest runs the handler on c.req and writes its reply; an error
// means the connection cannot carry another request.
func (c *srvConn) serveRequest() error {
	w := &c.w
	w.status, w.cl, w.written, w.buf, w.close, w.held = 0, -1, 0, w.buf[:0], false, false
	clear(w.hdr)
	ok := false
	func() {
		defer func() { // a panic closes this connection only
			if err := recover(); err != nil && err != http.ErrAbortHandler {
				log.Printf("h1: panic serving %s: %v\n%s", c.remote, err, debug.Stack())
			}
		}()
		c.s.h.ServeHTTP(w, c.req)
		ok = true
	}()
	if w.held { // the rest of a held reply, then the close that ends it
		_ = w.FlushError()
		return io.EOF
	}
	if c.body.err == nil && !c.body.cont && c.body.n < 256<<10 { // as net/http does
		_, _ = io.CopyN(io.Discard, &c.body, 256<<10) // a body read to its end keeps the connection
	}
	gone := c.ctx.Context.Err() != nil // what Err saw, without asking the socket again
	if !c.unwatch() || !ok || gone && w.status == 0 {
		return context.Canceled // a panic, or a caller gone with nothing to tell it
	}
	w.WriteHeader(http.StatusOK) // if the handler set no status
	w.emit()
	if cap(c.out) > maxWBuf || cap(w.buf) > maxWBuf {
		c.out, w.buf = nil, nil
	}
	if w.close || gone || c.req.Method != "HEAD" && bodyAllowed(w.status) && w.written != w.cl {
		return io.EOF
	}
	return nil
}

// body is a request body of declared length, or chunked. One the
// handler leaves unread past 256 KiB closes the connection.
type body struct {
	c       *srvConn
	n       int64     // bytes left of a declared length
	chunked io.Reader // a chunked body's decoder
	err     error     // io.EOF once read to its end
	cont    bool      // 100-continue asked for and not yet sent
}

func (b *body) Read(p []byte) (n int, err error) {
	if b.err != nil {
		return 0, b.err
	}
	if b.cont {
		b.cont = false
		if _, b.err = io.WriteString(b.c.nc, "HTTP/1.1 100 Continue\r\n\r\n"); b.err != nil {
			return 0, b.err
		}
	}
	if b.chunked != nil {
		if n, err = b.chunked.Read(p); err == io.EOF {
			if _, _, err = readHeader(b.c.br, b.c.hb[:0]); err == nil { // the trailer, which is not served
				err = io.EOF
			}
		}
	} else if n, err = b.c.br.Read(p[:min(int64(len(p)), b.n)]); n > 0 || err != nil {
		if b.n -= int64(n); b.n == 0 {
			err = io.EOF
		} else if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
	}
	if b.err = err; err == io.EOF {
		b.c.watch(b.c.br)
	}
	return n, err
}

func (b *body) Close() error { return nil }

// response holds a reply back until the handler returns, so that head
// and body go out in one write, unless the handler flushes it.
type response struct {
	c           *srvConn
	hdr         http.Header
	status      int
	cl, written int64 // cl: the declared Content-Length, -1 if none
	buf         []byte
	close       bool
	held        bool  // flushed: the head is out and the body runs to the close
	err         error // a held reply's first write error
}

func (w *response) Header() http.Header { return w.hdr }

func (w *response) WriteHeader(code int) {
	if w.status != 0 || code < 200 {
		return // informational replies are not sent
	}
	w.status = code
	if n, err := strconv.ParseInt(w.hdr.Get("Content-Length"), 10, 64); err == nil && n >= 0 {
		w.cl = n
	}
}

func (w *response) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK) // if the handler set no status
	if len(p) > 0 && !bodyAllowed(w.status) {
		return 0, http.ErrBodyNotAllowed
	}
	if w.written += int64(len(p)); w.cl >= 0 && w.written > w.cl {
		return 0, http.ErrContentLength
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// FlushError sends what the handler wrote and holds the reply: the first
// flush writes the head without a length, and starts a read that cancels
// the request's context once the peer hangs up (or sends a byte, unread).
func (w *response) FlushError() error {
	if c := w.c; !w.held {
		w.WriteHeader(http.StatusOK) // if the handler set no status
		w.held, w.close = true, true
		c.unwatch() // one background read, not the body's watch, learns of a hang-up
		if w.err = w.emit(); c.body.err == io.EOF {
			go func() { _, _ = c.br.Peek(1); c.ctx.cancel() }()
		}
	} else if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.c.nc.Write(w.buf)
	}
	if w.buf = w.buf[:0]; cap(w.buf) > maxWBuf {
		w.buf = nil
	}
	if w.err != nil {
		w.c.ctx.cancel() // as net/http does on a failed write
	}
	return w.err
}

// SetWriteDeadline bounds the reply's writes; the connection closes after it.
func (w *response) SetWriteDeadline(t time.Time) error {
	w.close = true
	return w.c.nc.SetWriteDeadline(t)
}

// emit writes the head and the body in one write: a body up to 4 KiB
// copied in behind the head (cheaper than a writev for a small call's
// reply), a larger one beside it (writev).
func (w *response) emit() error {
	c, p := w.c, w.buf
	if w.head() {
		p = nil
	}
	var err error
	if len(p) <= 4<<10 {
		c.out = append(c.out, p...)
		_, err = c.nc.Write(c.out)
	} else {
		nb := net.Buffers{c.out, p}
		_, err = nb.WriteTo(c.nc)
	}
	w.close = w.close || err != nil
	return err
}

// head renders the status line and header into c.out as net/http does
// for the same handler calls: the handler's headers sorted, then Date,
// Content-Length, Content-Type and Connection as it adds them. Unlike
// net/http, it declares the length of a body the handler left undeclared
// rather than chunk it. It reports whether the reply goes without its
// body (HEAD).
func (w *response) head() bool {
	c, h, r, p := w.c, w.hdr, w.c.req, w.buf
	allowed, http10, isHEAD := bodyAllowed(w.status), r.ProtoMinor == 0, r.Method == "HEAD"
	setCL := allowed && !w.held && h["Content-Length"] == nil && (!isHEAD || len(p) > 0)
	if setCL {
		w.cl = int64(len(p))
	}
	conn, ctype := "", ""
	if http10 && !r.Close && (w.cl >= 0 || !allowed || isHEAD) {
		if h["Connection"] == nil {
			conn = "keep-alive"
		}
	} else if http10 || r.Close {
		w.close = true
	}
	if h.Get("Connection") == "close" || c.s.closing.Load() || c.body.err != io.EOF {
		w.close = true
	}
	if h.Del("Transfer-Encoding"); !allowed {
		h.Del("Content-Length")
	} else if h["Content-Type"] == nil && h.Get("Content-Encoding") == "" && len(p) > 0 {
		ctype = http.DetectContentType(p)
	}
	if w.close && !hasToken(h.Get("Connection"), "close") {
		if h.Del("Connection"); !http10 {
			conn = "close"
		}
	}
	b := append(c.out[:0], "HTTP/1.1 "...)
	if http10 {
		b[7] = '0'
	}
	b = append(append(strconv.AppendInt(b, int64(w.status), 10), ' '), http.StatusText(w.status)...)
	c.out = append(b, "\r\n"...)
	_ = h.Write((*outWriter)(c))
	if h["Date"] == nil {
		c.out = append(time.Now().UTC().AppendFormat(append(c.out, "Date: "...), http.TimeFormat), "\r\n"...)
	}
	if setCL {
		c.out = append(strconv.AppendInt(append(c.out, "Content-Length: "...), w.cl, 10), "\r\n"...)
	}
	for _, kv := range [2][2]string{{"Content-Type", ctype}, {"Connection", conn}} {
		if kv[1] != "" {
			c.out = append(append(append(append(c.out, kv[0]...), ": "...), kv[1]...), "\r\n"...)
		}
	}
	c.out = append(c.out, "\r\n"...)
	return isHEAD
}

// outWriter appends a header to the connection's output.
type outWriter srvConn

func (o *outWriter) Write(p []byte) (int, error) {
	o.out = append(o.out, p...)
	return len(p), nil
}

func (o *outWriter) WriteString(s string) (int, error) {
	o.out = append(o.out, s...)
	return len(s), nil
}

func bodyAllowed(status int) bool {
	return status >= 200 && status != http.StatusNoContent && status != http.StatusNotModified
}

// hasToken reports whether the header value v holds token, which is in
// lower case.
func hasToken(v, token string) bool { return strings.Contains(strings.ToLower(v), token) }

func isToken(s string) bool {
	return s != "" && !strings.ContainsFunc(s, func(r rune) bool {
		return r <= ' ' || r >= 0x7f || strings.ContainsRune(`"(),/:;<=>?@[\]{}`, r)
	})
}

// isCTL reports whether a header value may not hold r: a control
// character other than tab.
func isCTL(r rune) bool { return r < ' ' && r != '\t' || r == 0x7f }
