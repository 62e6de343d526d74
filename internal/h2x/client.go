package h2x

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
)

// Request is one call as the engine sees it: pseudo-header components
// plus regular header fields (names must be lowercase, per HTTP/2) and
// an optional body.
type Request struct {
	Method    string
	Scheme    string
	Authority string
	Path      string
	Header    [][2]string
	Body      []byte
}

// Response is one reply: the status code, the regular header fields, and
// the complete body. A server handler may set Done; the engine invokes
// it once the response octets have been copied out (or the response is
// dropped), which is what lets handlers hand over pooled buffers as
// Body.
type Response struct {
	Status int
	Header [][2]string
	Body   []byte
	Done   func()
}

// HeaderValue returns the first value of the named field, whatever the
// case name is spelled in.
func (r *Request) HeaderValue(name string) string { return headerValue(r.Header, name) }

// HeaderValue is Request.HeaderValue, for a reply.
func (r *Response) HeaderValue(name string) string { return headerValue(r.Header, name) }

func headerValue(h [][2]string, name string) string {
	for _, f := range h {
		if strings.EqualFold(f[0], name) {
			return f[1]
		}
	}
	return ""
}

// ErrConnClosed reports a call attempted on (or interrupted by) a dead
// connection; callers holding a pooled conn redial on it.
var ErrConnClosed = errors.New("h2x: connection closed")

// ClientConn is one cleartext prior-knowledge HTTP/2 client connection
// multiplexing concurrent calls as streams: the connection core in its
// client role. A call is one write syscall (HEADERS and DATA leave in a
// single buffer) plus a channel receive; the core's frame loop parses
// reply frames and the role completes calls.
type ClientConn struct {
	conn

	mu      sync.Mutex // streams registry + conn liveness
	streams map[uint32]*clientStream
	nextID  uint32
	dead    error
}

// clientStream is one in-flight call.
type clientStream struct {
	id   uint32
	resp Response
	body []byte
	done chan error // buffered; nil error = complete response
}

// Dial opens a prior-knowledge h2c connection to addr and performs the
// client half of the HTTP/2 connection setup.
func Dial(addr string) (*ClientConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClientConn(nc), nil
}

// NewClientConn runs the HTTP/2 client preface over an established
// connection and returns the multiplexing conn.
func NewClientConn(nc net.Conn) *ClientConn {
	c := &ClientConn{streams: make(map[uint32]*clientStream), nextID: 1}
	c.init(nc)
	_ = c.write(func(b []byte) []byte {
		b = appendSettings(append(b, clientPreface...),
			[2]uint32{settingHeaderTableSize, 0},
			[2]uint32{settingEnablePush, 0},
			[2]uint32{settingMaxConcurrentStreams, maxConcurrentStream},
			[2]uint32{settingInitialWindowSize, streamWindow},
			[2]uint32{settingMaxFrameSize, maxFrameSize},
		)
		return appendWindowUpdate(b, 0, connWindow-initialWindow)
	})
	go func() { c.fail(c.readFrames(c)) }()
	return c
}

// Close tears the connection down; in-flight calls fail with
// ErrConnClosed.
func (c *ClientConn) Close() error { return c.nc.Close() }

// Alive reports whether the connection can still carry calls.
func (c *ClientConn) Alive() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead == nil
}

// fail marks the connection dead and completes every in-flight call: how
// a connection error ends a client.
func (c *ClientConn) fail(err error) {
	c.mu.Lock()
	if c.dead == nil {
		c.dead = err
	}
	streams := c.streams
	c.streams = make(map[uint32]*clientStream)
	c.mu.Unlock()
	c.shut()
	for _, s := range streams {
		s.done <- err
	}
}

// Do performs one call. Cancelling ctx resets the stream (RST_STREAM
// with CANCEL) and returns ctx.Err().
func (c *ClientConn) Do(ctx context.Context, req *Request) (*Response, error) {
	s := &clientStream{done: make(chan error, 1)}
	c.mu.Lock()
	if c.dead != nil {
		err := c.dead
		c.mu.Unlock()
		return nil, err
	}
	s.id = c.nextID
	c.nextID += 2
	c.streams[s.id] = s
	c.mu.Unlock()

	c.flow.open(s.id)
	defer c.flow.forget(s.id)
	if err := c.send(ctx, s.id, req.appendBlock, req.Body); err != nil {
		c.forget(s.id)
		return nil, err
	}

	select {
	case err := <-s.done:
		if err != nil {
			return nil, err
		}
		s.resp.Body = s.body
		return &s.resp, nil
	case <-ctx.Done():
		if c.forget(s.id) {
			c.reset(s.id, errCodeCancel)
		}
		return nil, ctx.Err()
	}
}

// appendBlock appends the request's header block: pseudo-headers first,
// stateless HPACK.
func (r *Request) appendBlock(b []byte) []byte {
	switch r.Method {
	case "GET":
		b = appendIndexed(b, 2)
	case "POST":
		b = appendIndexed(b, 3)
	default:
		b = appendLiteral(b, 2, "", r.Method)
	}
	if r.Scheme == "" || r.Scheme == "http" {
		b = appendIndexed(b, 6)
	} else {
		b = appendLiteral(b, 6, "", r.Scheme)
	}
	b = appendLiteral(b, 4, "", r.Path)
	b = appendLiteral(b, 1, "", r.Authority)
	for _, f := range r.Header {
		b = appendLiteral(b, 0, f[0], f[1])
	}
	return b
}

// forget removes the stream from the registry, reporting whether it was
// still registered (false means the frame loop already completed it).
func (c *ClientConn) forget(id uint32) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.streams[id]; !ok {
		return false
	}
	delete(c.streams, id)
	return true
}

// lookup finds a registered stream.
func (c *ClientConn) lookup(id uint32) *clientStream {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.streams[id]
}

// complete finishes a stream: removes it and delivers err (nil = done).
func (c *ClientConn) complete(id uint32, err error) {
	c.mu.Lock()
	s := c.streams[id]
	delete(c.streams, id)
	c.mu.Unlock()
	if s != nil {
		s.done <- err
	}
}

// onHeaders applies a reply's header block to its call; a cancelled
// call's is dropped.
func (c *ClientConn) onHeaders(hdr frameHeader, fields [][2]string) {
	s := c.lookup(hdr.streamID)
	if s == nil {
		return
	}
	h := fields[:0]
	for _, f := range fields {
		if f[0] == ":status" {
			s.resp.Status, _ = strconv.Atoi(f[1])
		} else if len(f[0]) > 0 && f[0][0] != ':' {
			h = append(h, f)
		}
	}
	if len(s.resp.Header) == 0 {
		s.resp.Header = h // the decoded list, its pseudo-headers dropped
	} else {
		s.resp.Header = append(s.resp.Header, h...)
	}
	if hdr.flags&flagEndStream != 0 {
		c.complete(hdr.streamID, nil)
	}
}

// onData appends a reply's DATA to its call, and completes the call at
// END_STREAM.
func (c *ClientConn) onData(hdr frameHeader, body []byte) {
	end := hdr.flags&flagEndStream != 0
	s := c.lookup(hdr.streamID)
	if s != nil {
		s.body = append(s.body, body...)
	}
	// Flow control counts the whole payload, padding included.
	c.creditReceive(hdr.streamID, hdr.length, s != nil && !end)
	if s != nil && end {
		c.complete(hdr.streamID, nil)
	}
}

// onReset fails a call the server reset.
func (c *ClientConn) onReset(id, code uint32) {
	c.complete(id, fmt.Errorf("h2x: stream reset by peer (code %d)", code))
}
