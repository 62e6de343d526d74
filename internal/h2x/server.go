package h2x

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
)

// Handler serves one complete call. It runs on a goroutine apart from the
// connection's frame loop, one of the connection's workers; ctx is
// cancelled when the client resets the stream or the connection dies. The
// returned response is written directly from that goroutine — no
// frame-scheduler handoff.
type Handler interface {
	ServeH2(ctx context.Context, req *Request) *Response
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(ctx context.Context, req *Request) *Response

// ServeH2 implements Handler.
func (f HandlerFunc) ServeH2(ctx context.Context, req *Request) *Response { return f(ctx, req) }

// maxServerBody caps one request body; the binding enforces its own
// (smaller) limit, this one just bounds engine memory.
const maxServerBody = 32 << 20

// maxIdleWorkers bounds the handler goroutines a connection keeps waiting
// for its next stream. A burst of streams beyond them starts goroutines
// that exit after their stream once that many others wait.
const maxIdleWorkers = 8

// Server accepts prior-knowledge cleartext HTTP/2 connections and
// serves calls through a Handler.
type Server struct {
	handler Handler

	mu       sync.Mutex
	listener net.Listener
	conns    map[*serverConn]struct{}
	closed   bool
}

// NewServer returns a server dispatching to h.
func NewServer(h Handler) *Server {
	return &Server{handler: h, conns: make(map[*serverConn]struct{})}
}

// Listen starts serving on addr ("127.0.0.1:0" for an ephemeral port)
// and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = l.Close()
		return "", fmt.Errorf("h2x: server closed")
	}
	s.listener = l
	s.mu.Unlock()
	go s.acceptLoop(l)
	return l.Addr().String(), nil
}

func (s *Server) acceptLoop(l net.Listener) {
	for {
		nc, err := l.Accept()
		if err != nil {
			return
		}
		c := s.newConn(nc)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = nc.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		go c.serve()
	}
}

// Close stops the listener and tears down every connection. Handler
// goroutines are not joined: a handler blocked in application code
// observes its cancelled context, and its response write fails
// harmlessly on the closed connection.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	l := s.listener
	conns := make([]*serverConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if l != nil {
		_ = l.Close()
	}
	for _, c := range conns {
		_ = c.nc.Close()
	}
	return nil
}

// serverConn is one accepted connection: the connection core in its
// server role.
type serverConn struct {
	conn
	srv *Server

	mu      sync.Mutex
	streams map[uint32]*serverStream

	// work hands a dispatched stream to an idle worker; only the frame
	// loop sends, and serve closes work when the loop ends. idle counts
	// the waiting workers.
	work chan *serverStream
	idle atomic.Int32
}

// serverStream is one request being assembled (or served).
type serverStream struct {
	id     uint32
	req    Request
	ctx    context.Context
	cancel context.CancelFunc // set once dispatched
}

func (s *Server) newConn(nc net.Conn) *serverConn {
	c := &serverConn{srv: s, streams: make(map[uint32]*serverStream), work: make(chan *serverStream)}
	c.init(nc)
	return c
}

// serve reads the preface, sends the server's settings and runs the frame
// loop. A connection error ends the connection with GOAWAY.
func (c *serverConn) serve() {
	defer func() {
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		c.srv.mu.Unlock()
		c.teardown()
		close(c.work)
	}()
	preface := make([]byte, len(clientPreface))
	if _, err := io.ReadFull(c.br, preface); err != nil || string(preface) != clientPreface {
		return
	}
	if err := c.write(func(b []byte) []byte {
		b = appendSettings(b,
			[2]uint32{settingHeaderTableSize, 0},
			[2]uint32{settingMaxConcurrentStreams, maxConcurrentStream},
			[2]uint32{settingInitialWindowSize, streamWindow},
			[2]uint32{settingMaxFrameSize, maxFrameSize},
		)
		return appendWindowUpdate(b, 0, connWindow-initialWindow)
	}); err != nil {
		return
	}
	var ce *connError
	if err := c.readFrames(c); errors.As(err, &ce) {
		_ = c.write(func(b []byte) []byte { return appendGoAway(b, 0, ce.code) })
	}
}

// teardown cancels every in-flight stream and unblocks writers.
func (c *serverConn) teardown() {
	c.shut()
	c.mu.Lock()
	streams := c.streams
	c.streams = make(map[uint32]*serverStream)
	c.mu.Unlock()
	for _, s := range streams {
		if s.cancel != nil {
			s.cancel()
		}
	}
}

// onHeaders starts a request from its header block and either dispatches
// it (END_STREAM set) or parks the stream awaiting DATA.
func (c *serverConn) onHeaders(hdr frameHeader, fields [][2]string) {
	s := &serverStream{id: hdr.streamID}
	h := fields[:0]
	for _, f := range fields {
		switch f[0] {
		case ":method":
			s.req.Method = f[1]
		case ":scheme":
			s.req.Scheme = f[1]
		case ":path":
			s.req.Path = f[1]
		case ":authority":
			s.req.Authority = f[1]
		default:
			if len(f[0]) > 0 && f[0][0] != ':' {
				h = append(h, f)
			}
		}
	}
	if len(h) > 0 {
		s.req.Header = h // the decoded list, its pseudo-headers dropped
	}
	c.flow.open(s.id)
	if hdr.flags&flagEndStream != 0 {
		c.dispatch(s)
		return
	}
	c.mu.Lock()
	c.streams[s.id] = s
	c.mu.Unlock()
}

// onData appends a DATA frame to its request's body, credits receive
// windows, and dispatches on END_STREAM. A request already dispatched
// takes no more DATA.
func (c *serverConn) onData(hdr frameHeader, body []byte) {
	end := hdr.flags&flagEndStream != 0
	c.mu.Lock()
	s := c.streams[hdr.streamID]
	if s != nil && s.cancel != nil {
		s = nil
	}
	if s != nil {
		s.req.Body = append(s.req.Body, body...)
		if len(s.req.Body) > maxServerBody {
			delete(c.streams, hdr.streamID)
			c.mu.Unlock()
			c.flow.forget(hdr.streamID)
			c.reset(hdr.streamID, errCodeEnhanceYourCalm)
			return
		}
		if end {
			delete(c.streams, hdr.streamID)
		}
	}
	c.mu.Unlock()
	c.creditReceive(hdr.streamID, hdr.length, s != nil && !end)
	if s != nil && end {
		c.dispatch(s)
	}
}

// onReset cancels the stream's handler.
func (c *serverConn) onReset(id, _ uint32) {
	c.mu.Lock()
	s := c.streams[id]
	delete(c.streams, id)
	c.mu.Unlock()
	if s != nil && s.cancel != nil {
		s.cancel()
	}
	c.flow.forget(id)
}

// dispatch registers the stream for RST-driven cancellation and hands it
// to an idle worker, or starts a worker for it when every worker is busy.
func (c *serverConn) dispatch(s *serverStream) {
	s.ctx, s.cancel = context.WithCancel(context.Background())
	c.mu.Lock()
	c.streams[s.id] = s
	c.mu.Unlock()
	select {
	case c.work <- s:
	default:
		go c.worker(s)
	}
}

// worker serves s, then each stream handed to it while it waits idle, so
// a sequential caller's calls run on a stack that has already grown. It
// exits when the connection ends, or after a stream when maxIdleWorkers
// others already wait.
func (c *serverConn) worker(s *serverStream) {
	for {
		c.serveStream(s)
		if c.idle.Add(1) > maxIdleWorkers {
			c.idle.Add(-1)
			return
		}
		var ok bool
		if s, ok = <-c.work; !ok {
			return
		}
		c.idle.Add(-1)
	}
}

// serveStream runs the handler and sends its response.
func (c *serverConn) serveStream(s *serverStream) {
	defer s.cancel()
	resp := c.srv.handler.ServeH2(s.ctx, &s.req)
	c.mu.Lock()
	delete(c.streams, s.id)
	c.mu.Unlock()
	if resp != nil && resp.Done != nil {
		// The response octets are copied into the connection's write
		// buffer before send returns, so the handler's pooled Body
		// buffer is released either way.
		defer resp.Done()
	}
	if resp != nil && s.ctx.Err() == nil {
		// A response that cannot be sent has no one to hear of it: its
		// stream was reset or its connection died.
		_ = c.send(s.ctx, s.id, resp.appendBlock, resp.Body)
	}
	c.flow.forget(s.id)
}

// appendBlock appends the response's header block: :status first,
// stateless HPACK.
func (r *Response) appendBlock(b []byte) []byte {
	switch r.Status {
	case 200:
		b = appendIndexed(b, 8)
	case 204:
		b = appendIndexed(b, 9)
	case 304:
		b = appendIndexed(b, 11)
	case 400:
		b = appendIndexed(b, 12)
	case 404:
		b = appendIndexed(b, 13)
	case 500:
		b = appendIndexed(b, 14)
	default:
		b = appendLiteral(b, 8, "", strconv.Itoa(r.Status))
	}
	for _, f := range r.Header {
		b = appendLiteral(b, 0, f[0], f[1])
	}
	return b
}
