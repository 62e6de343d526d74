// Package iiop implements the Internet Inter-ORB Protocol transport: GIOP
// messages over TCP. The Server side accepts connections and runs each
// Request's Handler on a goroutine apart from the connection's read loop,
// so requests on one connection run concurrently (the paper's call
// handlers are "completely multithreaded", Section 5.4); the Conn side is
// a client connection that multiplexes concurrent requests by request ID.
//
// Both sides pay their fixed costs per connection, not per call. Each reads
// GIOP through its own buffered reader, so a whole message, and any
// messages queued behind it, arrives in one read. A server connection
// keeps up to maxIdleWorkers handler goroutines waiting between requests
// and starts another only when all of them are busy, so a sequential
// caller's requests run on a stack that has already grown.
package iiop

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"livedev/internal/cdr"
	"livedev/internal/giop"
)

// Handler processes one GIOP request and returns the reply message. args is
// positioned at the first argument octet. Implementations must be safe for
// concurrent use.
//
// ctx is the request's context: it is cancelled when the peer sends a GIOP
// CancelRequest for this request ID (the client's invoking context was
// cancelled), when the connection drops, or when the server shuts down.
// Handlers may consult it to abandon work whose reply nobody will read.
//
// Buffer lifetime: the request header's ObjectKey/Principal slices and the
// args decoder alias a pooled message buffer that is recycled after
// HandleRequest returns and the reply is written. Handlers must not retain
// them; decoded values (cdr.DecodeValue, Read* copies) are safe to keep.
// ctx is pooled the same way: it must not be retained (or handed to
// goroutines that outlive the call) after HandleRequest returns.
type Handler interface {
	HandleRequest(ctx context.Context, h giop.RequestHeader, args *cdr.Decoder, order cdr.ByteOrder) giop.Message
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(ctx context.Context, h giop.RequestHeader, args *cdr.Decoder, order cdr.ByteOrder) giop.Message

// HandleRequest implements Handler.
func (f HandlerFunc) HandleRequest(ctx context.Context, h giop.RequestHeader, args *cdr.Decoder, order cdr.ByteOrder) giop.Message {
	return f(ctx, h, args, order)
}

var _ Handler = (HandlerFunc)(nil)

// Server accepts IIOP connections and dispatches requests to a Handler.
type Server struct {
	handler Handler

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer returns a server that will dispatch to handler.
func NewServer(handler Handler) *Server {
	return &Server{handler: handler, conns: make(map[net.Conn]struct{})}
}

// Listen starts accepting on addr ("host:port"; port 0 picks a free port)
// and returns the bound address. Serving happens on background goroutines
// owned by the server; Close joins them.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("iiop: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = ln.Close()
		return nil, errors.New("iiop: server already closed")
	}
	s.ln = ln
	s.mu.Unlock()

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop(ln)
	}()
	return ln.Addr(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()

		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// Per-connection sizes: readBufSize is each side's read buffer, and
// maxIdleWorkers bounds the handler goroutines a server connection keeps
// waiting for its next request. A burst of requests beyond them starts
// goroutines that exit after their request once that many others wait.
const (
	readBufSize    = 16 << 10
	maxIdleWorkers = 8
)

// serverConn is one accepted connection: its read loop and the workers
// that run its requests' handlers.
type serverConn struct {
	s    *Server
	conn net.Conn
	br   *bufio.Reader

	writeMu sync.Mutex
	// inflight maps request IDs to their pooled request contexts so a
	// CancelRequest from the peer aborts exactly the request it names.
	// Cancels run while holding inflightMu; a request is unregistered under
	// the same mutex before its context is recycled, which is what makes
	// the pooled contexts safe (no cancel can land on a reused context).
	inflightMu sync.Mutex
	inflight   map[uint32]*reqCtx

	// work hands a request to an idle worker; only the read loop sends,
	// and it closes work when it ends. idle counts the waiting workers.
	work    chan request
	idle    atomic.Int32
	workers sync.WaitGroup
}

// request is one decoded Request on its way to a worker. hdr and args
// alias msg's pooled body.
type request struct {
	hdr  giop.RequestHeader
	args *cdr.Decoder
	msg  giop.Message
	rc   *reqCtx
}

func (s *Server) serveConn(conn net.Conn) {
	sc := &serverConn{
		s:        s,
		conn:     conn,
		br:       bufio.NewReaderSize(conn, readBufSize),
		inflight: make(map[uint32]*reqCtx),
		work:     make(chan request),
	}
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	defer func() {
		// Connection teardown (including server shutdown, which closes the
		// conn): cancel whatever is still running, dismiss the idle
		// workers, then join them all. The read loop has exited, so no new
		// registrations can race this sweep.
		sc.inflightMu.Lock()
		for _, rc := range sc.inflight {
			rc.cancel(context.Canceled)
		}
		sc.inflightMu.Unlock()
		close(sc.work)
		sc.workers.Wait()
	}()
	sc.readLoop()
}

// readLoop reads the connection's messages until it ends. It runs no
// handler itself, so it stays free to read a CancelRequest for a request
// in progress.
func (sc *serverConn) readLoop() {
	for {
		msg, err := giop.ReadMessagePooled(sc.br)
		if err != nil {
			return // EOF, protocol error, or connection closed
		}
		switch msg.Type {
		case giop.MsgRequest:
			hdr, args, err := giop.DecodeRequest(msg)
			if err != nil {
				// Unparseable request header: signal and drop the conn.
				msg.Recycle()
				sc.write(giop.Message{Type: giop.MsgMessageError, Order: msg.Order})
				return
			}
			rc := newReqCtx()
			sc.inflightMu.Lock()
			sc.inflight[hdr.RequestID] = rc
			sc.inflightMu.Unlock()
			sc.dispatch(request{hdr: hdr, args: args, msg: msg, rc: rc})
		case giop.MsgCancelRequest:
			id, err := giop.DecodeCancelRequest(msg)
			msg.Recycle()
			if err != nil {
				continue // malformed cancel: ignore, it is advisory
			}
			sc.inflightMu.Lock()
			if rc := sc.inflight[id]; rc != nil {
				rc.cancel(context.Canceled)
			}
			sc.inflightMu.Unlock()
		case giop.MsgCloseConnection:
			msg.Recycle()
			return
		default:
			// LocateRequest etc. are not needed by the SDE; reply with
			// MessageError per GIOP for unexpected types.
			msg.Recycle()
			sc.write(giop.Message{Type: giop.MsgMessageError, Order: msg.Order})
		}
	}
}

// dispatch hands r to an idle worker, or starts a worker for it when
// every worker is busy.
func (sc *serverConn) dispatch(r request) {
	select {
	case sc.work <- r:
	default:
		sc.workers.Add(1)
		go sc.worker(r)
	}
}

// worker serves r, then each request handed to it while it waits idle. It
// exits when the read loop ends, or after a request when maxIdleWorkers
// others already wait.
func (sc *serverConn) worker(r request) {
	defer sc.workers.Done()
	for {
		sc.serve(r)
		if sc.idle.Add(1) > maxIdleWorkers {
			sc.idle.Add(-1)
			return
		}
		var ok bool
		if r, ok = <-sc.work; !ok {
			return
		}
		sc.idle.Add(-1)
	}
}

// serve runs one request's handler and writes its reply.
func (sc *serverConn) serve(r request) {
	reply := sc.s.handler.HandleRequest(r.rc, r.hdr, r.args, r.msg.Order)
	// The handler is done with the request body (hdr and args alias it;
	// decoded values are copies).
	r.msg.Recycle()
	sc.inflightMu.Lock()
	delete(sc.inflight, r.hdr.RequestID)
	sc.inflightMu.Unlock()
	// Unregistered under the mutex: no cancel holds a reference any more,
	// so the context can be pooled for the next request.
	r.rc.recycle()
	if r.hdr.ResponseExpected {
		sc.write(reply)
	}
	reply.Recycle()
}

// write sends one message; a failed write means a dead connection, which
// the read loop's next read reports.
func (sc *serverConn) write(m giop.Message) {
	sc.writeMu.Lock()
	_ = giop.WriteMessage(sc.conn, m)
	sc.writeMu.Unlock()
}

// Close stops accepting, closes all connections, and joins every serving
// goroutine.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}
