package iiop

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"livedev/internal/cdr"
	"livedev/internal/giop"
)

// ErrConnClosed reports an invocation attempted on (or interrupted by) a
// closed connection.
var ErrConnClosed = errors.New("iiop: connection closed")

// callSlot is a pooled per-request rendezvous between Invoke and the read
// loop. The channel carries exactly one message per registration: the
// matching Reply, or a non-Reply sentinel meaning "connection failed, read
// cn.readErr". Slots go back to the pool once that message is consumed, so
// steady-state invocation allocates neither a channel nor a map of channels.
type callSlot struct {
	ch chan giop.Message
}

var slotPool = sync.Pool{
	New: func() any { return &callSlot{ch: make(chan giop.Message, 1)} },
}

// The pending-reply table is sharded by request ID so concurrent invokers
// multiplexed over one connection do not serialize on a single map mutex:
// register, reply routing, and abandon each lock only the shard the ID
// hashes to. 16 shards comfortably exceeds the point where the shared-map
// mutex stopped being the bottleneck (see BenchmarkConnInvokeParallel).
const (
	numShards = 16
	shardMask = numShards - 1
)

// pendingShard is one slice of the pending-reply table. A nil map marks the
// connection as failed: registrations that arrive after failAll swept the
// shard observe the nil and report the recorded error instead of parking a
// slot nothing will ever wake.
type pendingShard struct {
	mu sync.Mutex
	m  map[uint32]*callSlot
	_  [48]byte // pad to a cache line so shards don't false-share
}

// Conn is a client-side IIOP connection. Concurrent Invoke calls are
// multiplexed over the single TCP stream by GIOP request ID.
type Conn struct {
	c net.Conn

	writeMu sync.Mutex

	nextID atomic.Uint32
	shards [numShards]pendingShard

	stateMu sync.Mutex
	closed  bool
	readErr error
	// dead is set with closed or readErr, so Broken — which a pooled
	// CORBA stub checks before every call — takes no lock.
	dead atomic.Bool

	readerDone chan struct{}
}

// Broken reports whether the connection is no longer usable: closed, its
// read loop died (peer went away, protocol error), or a request's write
// failed. Invokes on a broken connection fail fast; pools use this to
// evict dead connections.
func (cn *Conn) Broken() bool { return cn.dead.Load() }

// Dial is DialContext with a background context.
func Dial(addr string) (*Conn, error) {
	return DialContext(context.Background(), addr)
}

// DialContext opens an IIOP connection to addr ("host:port"). The TCP
// connect is bounded by ctx: cancellation or deadline expiry aborts it.
func DialContext(ctx context.Context, addr string) (*Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("iiop: dial %s: %w", addr, err)
	}
	conn := &Conn{
		c:          c,
		readerDone: make(chan struct{}),
	}
	for i := range conn.shards {
		conn.shards[i].m = make(map[uint32]*callSlot)
	}
	go conn.readLoop()
	return conn, nil
}

func (cn *Conn) shard(id uint32) *pendingShard { return &cn.shards[id&shardMask] }

func (cn *Conn) readLoop() {
	defer close(cn.readerDone)
	for {
		msg, err := giop.ReadMessagePooled(cn.c)
		if err != nil {
			cn.failAll(fmt.Errorf("%w: %v", ErrConnClosed, err))
			return
		}
		switch msg.Type {
		case giop.MsgReply:
			hdr, _, err := giop.DecodeReply(msg)
			if err != nil {
				msg.Recycle()
				cn.failAll(fmt.Errorf("iiop: undecodable reply: %w", err))
				return
			}
			sh := cn.shard(hdr.RequestID)
			sh.mu.Lock()
			slot, ok := sh.m[hdr.RequestID]
			if ok {
				delete(sh.m, hdr.RequestID)
			}
			sh.mu.Unlock()
			if ok {
				slot.ch <- msg
			} else {
				// Abandoned (cancelled context) or unknown: drop it.
				msg.Recycle()
			}
		case giop.MsgCloseConnection:
			msg.Recycle()
			cn.failAll(ErrConnClosed)
			return
		case giop.MsgMessageError:
			msg.Recycle()
			cn.failAll(errors.New("iiop: peer reported message error"))
			return
		default:
			// Ignore unexpected message types from the server.
			msg.Recycle()
		}
	}
}

// failSentinel is the non-Reply message failAll delivers to wake pending
// invokers; on receiving it they consult cn.readErr.
var failSentinel = giop.Message{Type: giop.MsgMessageError}

// failAll wakes every pending invoker with an error by delivering the fail
// sentinel after recording the error, and marks each shard dead (nil map) so
// late registrations fail fast. Each slot's channel has space: a slot
// receives at most one message per registration (reply routing removes it
// from the map first).
func (cn *Conn) failAll(err error) {
	cn.stateMu.Lock()
	if cn.readErr == nil {
		cn.readErr = err
	}
	cn.dead.Store(true)
	cn.stateMu.Unlock()
	for i := range cn.shards {
		sh := &cn.shards[i]
		sh.mu.Lock()
		pending := sh.m
		sh.m = nil
		sh.mu.Unlock()
		for _, slot := range pending {
			slot.ch <- failSentinel
		}
	}
}

// deadErr reports why the connection is unusable.
func (cn *Conn) deadErr() error {
	cn.stateMu.Lock()
	defer cn.stateMu.Unlock()
	if cn.readErr != nil {
		return cn.readErr
	}
	return ErrConnClosed
}

// register allocates a request ID and parks a pooled slot for its reply.
func (cn *Conn) register() (uint32, *callSlot, error) {
	slot := slotPool.Get().(*callSlot)
	id := cn.nextID.Add(1)
	sh := cn.shard(id)
	sh.mu.Lock()
	if sh.m == nil {
		sh.mu.Unlock()
		slotPool.Put(slot)
		return 0, nil, cn.deadErr()
	}
	sh.m[id] = slot
	sh.mu.Unlock()
	return id, slot, nil
}

// send encodes and writes the request message for an already-registered ID.
func (cn *Conn) send(id uint32, objectKey []byte, operation string, order cdr.ByteOrder, args func(*cdr.Encoder) error) error {
	// objectKey is encoded into the body before EncodeRequest returns, so
	// no defensive copy is needed.
	req, err := giop.EncodeRequest(order, giop.RequestHeader{
		RequestID:        id,
		ResponseExpected: true,
		ObjectKey:        objectKey,
		Operation:        operation,
	}, args)
	if err != nil {
		return err
	}
	cn.writeMu.Lock()
	err = giop.WriteMessage(cn.c, req)
	cn.writeMu.Unlock()
	req.Recycle()
	if err != nil {
		// A failed write leaves the stream's framing unknown: the
		// connection is dead even if the read loop has not seen it yet.
		err = fmt.Errorf("iiop: sending request: %w", err)
		cn.failAll(err)
		return err
	}
	return nil
}

// await blocks until the slot delivers the reply (or the fail sentinel), or
// ctx is cancelled. On cancellation the request is abandoned — a GIOP
// CancelRequest is sent so the server can stop working on it, the eventual
// reply (if any) is drained off-thread, and the returned error wraps
// ctx.Err().
func (cn *Conn) await(ctx context.Context, id uint32, order cdr.ByteOrder, slot *callSlot) (giop.Message, error) {
	select {
	case msg := <-slot.ch:
		slotPool.Put(slot)
		if msg.Type != giop.MsgReply {
			return giop.Message{}, cn.deadErr()
		}
		return msg, nil
	case <-ctx.Done():
		cn.cancelRequest(id, order)
		cn.abandon(id, slot)
		return giop.Message{}, fmt.Errorf("iiop: invocation aborted: %w", ctx.Err())
	}
}

// cancelRequest best-effort notifies the server that the reply for id is no
// longer wanted. The write happens on a detached goroutine: the caller is
// on the cancellation path and must return promptly even if the peer has
// stopped draining its socket (a blocking write here would also wedge
// writeMu for every other invoker). If the connection dies first the write
// simply fails.
func (cn *Conn) cancelRequest(id uint32, order cdr.ByteOrder) {
	go func() {
		msg := giop.EncodeCancelRequest(order, id)
		cn.writeMu.Lock()
		_ = giop.WriteMessage(cn.c, msg)
		cn.writeMu.Unlock()
		msg.Recycle()
	}()
}

// Invoke sends a GIOP request for operation on objectKey, with arguments
// encoded by args (may be nil), and waits for the matching reply. ctx
// cancellation or deadline expiry aborts the wait (the connection stays
// usable; the late reply is dropped when it arrives). It returns the reply
// header and a decoder positioned at the reply body. The reply body is
// caller-owned (never recycled), so the decoder stays valid indefinitely;
// latency-sensitive callers should prefer InvokeInto, which recycles the
// body buffer.
func (cn *Conn) Invoke(ctx context.Context, objectKey []byte, operation string, order cdr.ByteOrder, args func(*cdr.Encoder) error) (giop.ReplyHeader, *cdr.Decoder, error) {
	if err := ctx.Err(); err != nil {
		return giop.ReplyHeader{}, nil, fmt.Errorf("iiop: invocation aborted: %w", err)
	}
	id, slot, err := cn.register()
	if err != nil {
		return giop.ReplyHeader{}, nil, err
	}
	if err := cn.send(id, objectKey, operation, order, args); err != nil {
		cn.abandon(id, slot)
		return giop.ReplyHeader{}, nil, err
	}
	msg, err := cn.await(ctx, id, order, slot)
	if err != nil {
		return giop.ReplyHeader{}, nil, err
	}
	// Detach the body from the pool: the returned decoder outlives this
	// call, so the buffer must not be reused under it.
	msg.Disown()
	return giop.DecodeReply(msg)
}

// InvokeInto is Invoke with scoped reply ownership: reply is called with
// the reply header and body decoder, and the pooled body buffer is recycled
// as soon as reply returns. Values that must outlive the call have to be
// copied inside reply (the plain cdr Read*/DecodeValue paths already copy).
func (cn *Conn) InvokeInto(ctx context.Context, objectKey []byte, operation string, order cdr.ByteOrder, args func(*cdr.Encoder) error, reply func(giop.ReplyHeader, *cdr.Decoder) error) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("iiop: invocation aborted: %w", err)
	}
	id, slot, err := cn.register()
	if err != nil {
		return err
	}
	if err := cn.send(id, objectKey, operation, order, args); err != nil {
		cn.abandon(id, slot)
		return err
	}
	msg, err := cn.await(ctx, id, order, slot)
	if err != nil {
		return err
	}
	hdr, body, err := giop.DecodeReply(msg)
	if err != nil {
		msg.Recycle()
		return err
	}
	err = reply(hdr, body)
	msg.Recycle()
	return err
}

// abandon unregisters a request that failed before (or instead of) waiting
// for its reply. If the read loop (or failAll) already claimed the slot for
// delivery, the message is guaranteed to arrive; drain it off-thread — an
// abandoning caller, e.g. one whose context was cancelled mid-call against a
// slow server, must not block on the server's schedule — and pool the slot
// once consumed.
func (cn *Conn) abandon(id uint32, slot *callSlot) {
	sh := cn.shard(id)
	sh.mu.Lock()
	var present bool
	if sh.m != nil {
		if _, present = sh.m[id]; present {
			delete(sh.m, id)
		}
	}
	sh.mu.Unlock()
	if !present {
		go func() {
			msg := <-slot.ch
			msg.Recycle()
			slotPool.Put(slot)
		}()
		return
	}
	slotPool.Put(slot)
}

// Close tears down the connection and joins the read loop. In-flight
// invocations fail with ErrConnClosed.
func (cn *Conn) Close() error {
	cn.stateMu.Lock()
	if cn.closed {
		cn.stateMu.Unlock()
		return nil
	}
	cn.closed = true
	cn.dead.Store(true)
	cn.stateMu.Unlock()
	err := cn.c.Close()
	<-cn.readerDone
	return err
}
