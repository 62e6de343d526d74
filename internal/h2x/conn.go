package h2x

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// conn is the connection core both roles embed: the socket and its
// reader, the one locked frame writer, send-direction flow control, the
// receive-credit debt, and the frame loop, which handles everything but
// what a stream's HEADERS, DATA and RST_STREAM mean. That is the role's.
type conn struct {
	nc net.Conn
	br *bufio.Reader

	wmu  sync.Mutex // serializes writes; wbuf is its scratch
	wbuf []byte

	flow flowState

	// The frame loop's own state: receive-credit debt, the frame header
	// and payload buffers, a header block split over CONTINUATIONs, and
	// the HPACK decoder with its intern table.
	recvDebt uint32
	hbuf     [9]byte
	payload  []byte
	block    []byte
	hpack    hpackDecoder
}

// role is what one side makes of a stream's frames. The frame loop calls
// it, one frame at a time.
type role interface {
	onHeaders(hdr frameHeader, fields [][2]string)
	onData(hdr frameHeader, body []byte)
	onReset(id, code uint32)
}

func (c *conn) init(nc net.Conn) {
	c.nc = nc
	c.br = bufio.NewReaderSize(nc, 1<<16)
	c.flow.init()
}

// write is the connection's one frame writer: f appends frames to the
// scratch buffer under the write lock, and they leave in one Write.
func (c *conn) write(f func([]byte) []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = f(c.wbuf[:0])
	if len(c.wbuf) == 0 {
		return nil
	}
	if _, err := c.nc.Write(c.wbuf); err != nil {
		return fmt.Errorf("%w: %v", ErrConnClosed, err)
	}
	return nil
}

// reset sends RST_STREAM for stream id.
func (c *conn) reset(id, code uint32) {
	_ = c.write(func(b []byte) []byte { return appendRSTStream(b, id, code) })
}

// shut closes the socket and fails every sender waiting on a window.
func (c *conn) shut() {
	_ = c.nc.Close()
	c.flow.mu.Lock()
	c.flow.dead = true
	c.flow.cond.Broadcast()
	c.flow.mu.Unlock()
}

// readFrame reads one frame into the loop's payload buffer.
func (c *conn) readFrame() (frameHeader, []byte, error) {
	hdr, err := readFrameHeader(c.br, &c.hbuf)
	if err != nil {
		return hdr, nil, fmt.Errorf("%w: %v", ErrConnClosed, err)
	}
	if hdr.length > maxFrameSize {
		return hdr, nil, &connError{errCodeProtocol, "frame exceeds the advertised maximum size"}
	}
	if cap(c.payload) < int(hdr.length) {
		c.payload = make([]byte, hdr.length)
	}
	p := c.payload[:hdr.length]
	if _, err := io.ReadFull(c.br, p); err != nil {
		return hdr, nil, fmt.Errorf("%w: %v", ErrConnClosed, err)
	}
	return hdr, p, nil
}

// readFrames is the frame loop. It answers SETTINGS and PING, applies
// WINDOW_UPDATE, and hands a stream's HEADERS (decoded), DATA (padding
// stripped) and RST_STREAM to r, until the connection ends. It returns
// why: an I/O error or the peer's GOAWAY, wrapped in ErrConnClosed, or a
// *connError. The loop drops its own writes' errors: a failed write
// means a dead connection, which its next read reports.
func (c *conn) readFrames(r role) error {
	for {
		hdr, payload, err := c.readFrame()
		if err != nil {
			return err
		}
		switch hdr.typ {
		case frameHeaders:
			fields, err := c.readHeaderBlock(hdr, payload)
			if err != nil {
				return err
			}
			r.onHeaders(hdr, fields)
		case frameData:
			body := payload
			if hdr.flags&flagPadded != 0 {
				if body, err = stripPadding(payload); err != nil {
					return &connError{errCodeProtocol, err.Error()}
				}
			}
			r.onData(hdr, body)
		case frameRSTStream:
			if len(payload) == 4 {
				r.onReset(hdr.streamID, binary.BigEndian.Uint32(payload))
			}
		case frameSettings:
			if hdr.flags&flagAck == 0 {
				c.flow.apply(payload)
				_ = c.write(appendSettingsAck)
			}
		case framePing:
			if hdr.flags&flagAck == 0 && len(payload) == 8 {
				_ = c.write(func(b []byte) []byte { return appendPingAck(b, payload) })
			}
		case frameWindowUpdate:
			if len(payload) == 4 {
				c.flow.credit(hdr.streamID, int64(binary.BigEndian.Uint32(payload)&0x7fffffff))
			}
		case frameGoAway:
			return fmt.Errorf("%w: GOAWAY from peer", ErrConnClosed)
		case frameContinuation:
			// Outside readHeaderBlock, a CONTINUATION means an
			// interleaved header block.
			return &connError{errCodeProtocol, "unexpected CONTINUATION"}
		}
		// PRIORITY is ignored (RFC 9113 deprecates it), and so is
		// PUSH_PROMISE: push is disabled via SETTINGS.
	}
}

// readHeaderBlock decodes a HEADERS frame's block, reading the
// CONTINUATIONs that complete it. A block that ends in its first frame is
// decoded in place: the decoder copies out (or interns) its strings.
func (c *conn) readHeaderBlock(hdr frameHeader, payload []byte) ([][2]string, error) {
	frag := payload
	if hdr.flags&flagPadded != 0 {
		b, err := stripPadding(payload)
		if err != nil {
			return nil, &connError{errCodeProtocol, err.Error()}
		}
		frag = b
	}
	if hdr.flags&flagPriority != 0 {
		if len(frag) < 5 {
			return nil, &connError{errCodeProtocol, "HEADERS priority block too short"}
		}
		frag = frag[5:]
	}
	if hdr.flags&flagEndHeaders == 0 {
		c.block = append(c.block[:0], frag...)
		for {
			ch, p, err := c.readFrame()
			if err != nil {
				return nil, err
			}
			if ch.typ != frameContinuation || ch.streamID != hdr.streamID {
				return nil, &connError{errCodeProtocol, "bad CONTINUATION"}
			}
			c.block = append(c.block, p...)
			if ch.flags&flagEndHeaders != 0 {
				break
			}
		}
		frag = c.block
	}
	fields, err := c.hpack.decode(frag)
	if err != nil {
		return nil, &connError{errCodeProtocol, err.Error()}
	}
	return fields, nil
}

// creditReceive returns receive-window credit for n octets of DATA: the
// stream's at once while it stays open (so multi-frame bodies keep
// flowing), the connection's in batches. Only the frame loop calls it.
func (c *conn) creditReceive(id uint32, n uint32, streamOpen bool) {
	if n == 0 {
		return
	}
	c.recvDebt += n
	connCredit := uint32(0)
	if c.recvDebt >= connWindow/4 {
		connCredit, c.recvDebt = c.recvDebt, 0
	}
	_ = c.write(func(b []byte) []byte {
		if streamOpen {
			b = appendWindowUpdate(b, id, n)
		}
		if connCredit > 0 {
			b = appendWindowUpdate(b, 0, connCredit)
		}
		return b
	})
}

// send writes one message on stream id: the HEADERS frame whose block
// appendBlock writes, into the scratch buffer under the write lock, and
// body as DATA. When the body fits one frame and the windows have room,
// both frames leave in one Write. A larger body follows HEADERS as DATA
// chunks the windows admit; if one cannot be sent for a reason other
// than a dead connection, the half-sent stream is reset.
func (c *conn) send(ctx context.Context, id uint32, appendBlock func([]byte) []byte, body []byte) error {
	maxFrame := c.flow.frameSize()
	whole := len(body) <= maxFrame
	if whole && len(body) > 0 {
		if err := c.flow.take(ctx, id, len(body)); err != nil {
			return err
		}
	}
	flags := uint8(flagEndHeaders)
	if len(body) == 0 {
		flags |= flagEndStream
	}
	blockLen := 0
	err := c.write(func(b []byte) []byte {
		start := len(b)
		b = appendBlock(appendFrameHeader(b, 0, frameHeaders, flags, id))
		if blockLen = len(b) - start - 9; blockLen > maxFrame {
			return b[:start]
		}
		b[start], b[start+1], b[start+2] = byte(blockLen>>16), byte(blockLen>>8), byte(blockLen)
		if whole && len(body) > 0 {
			b = append(appendFrameHeader(b, len(body), frameData, flagEndStream, id), body...)
		}
		return b
	})
	if blockLen > maxFrame {
		if whole {
			c.flow.credit(0, int64(len(body))) // nothing left: give back what take took
		}
		return fmt.Errorf("h2x: header block of %d octets exceeds the peer's frame limit", blockLen)
	}
	if err != nil || whole {
		return err
	}
	for len(body) > 0 {
		n := min(len(body), c.flow.frameSize())
		if err := c.flow.take(ctx, id, n); err != nil {
			if !errors.Is(err, ErrConnClosed) {
				c.reset(id, errCodeCancel)
			}
			return err
		}
		flags := uint8(0)
		if n == len(body) {
			flags = flagEndStream
		}
		if err := c.write(func(b []byte) []byte {
			return append(appendFrameHeader(b, n, frameData, flags, id), body[:n]...)
		}); err != nil {
			return err
		}
		body = body[n:]
	}
	return nil
}

// flowState tracks send-direction flow control: the connection window
// plus the peer's initial stream window, guarded by one mutex with a
// broadcast when credit arrives.
type flowState struct {
	mu            sync.Mutex
	cond          sync.Cond
	connWindow    int64
	initialWindow int64            // peer SETTINGS_INITIAL_WINDOW_SIZE
	streamWindow  map[uint32]int64 // per open stream
	maxFrame      uint32           // peer SETTINGS_MAX_FRAME_SIZE
	dead          bool
}

func (f *flowState) init() {
	f.cond.L = &f.mu
	f.connWindow = initialWindow
	f.initialWindow = initialWindow
	f.streamWindow = make(map[uint32]int64)
	f.maxFrame = minMaxFrameSize
}

// frameSize is the largest DATA frame the peer accepts.
func (f *flowState) frameSize() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int(f.maxFrame)
}

// open gives stream id the peer's initial window, unless it has one.
func (f *flowState) open(id uint32) {
	f.mu.Lock()
	if _, ok := f.streamWindow[id]; !ok {
		f.streamWindow[id] = f.initialWindow
	}
	f.mu.Unlock()
}

func (f *flowState) forget(id uint32) {
	f.mu.Lock()
	delete(f.streamWindow, id)
	f.mu.Unlock()
}

// take blocks until n octets of both connection and stream send window
// are available, then consumes them. It fails when the conn dies, the
// stream is forgotten (reset), or ctx ends; only a wait watches ctx. n
// must fit the windows' maximums; callers chunk by maxFrame first.
func (f *flowState) take(ctx context.Context, id uint32, n int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	watching := false
	for {
		if f.dead {
			return ErrConnClosed
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		w, ok := f.streamWindow[id]
		if !ok {
			return ErrConnClosed
		}
		if f.connWindow >= int64(n) && w >= int64(n) {
			f.connWindow -= int64(n)
			f.streamWindow[id] -= int64(n)
			return nil
		}
		if !watching {
			watching = true
			stop := context.AfterFunc(ctx, func() {
				f.mu.Lock()
				f.cond.Broadcast()
				f.mu.Unlock()
			})
			defer stop()
		}
		f.cond.Wait()
	}
}

// credit adds send-window credit (streamID 0 = connection) and wakes
// blocked writers.
func (f *flowState) credit(streamID uint32, delta int64) {
	f.mu.Lock()
	if streamID == 0 {
		f.connWindow += delta
	} else if _, ok := f.streamWindow[streamID]; ok {
		f.streamWindow[streamID] += delta
	}
	f.cond.Broadcast()
	f.mu.Unlock()
}

// apply applies a peer SETTINGS frame to the send direction.
func (f *flowState) apply(payload []byte) {
	f.mu.Lock()
	for i := 0; i+6 <= len(payload); i += 6 {
		v := binary.BigEndian.Uint32(payload[i+2:])
		switch binary.BigEndian.Uint16(payload[i:]) {
		case settingInitialWindowSize:
			delta := int64(v) - f.initialWindow
			f.initialWindow = int64(v)
			for sid := range f.streamWindow {
				f.streamWindow[sid] += delta
			}
		case settingMaxFrameSize:
			if v >= minMaxFrameSize {
				f.maxFrame = v
			}
		}
	}
	f.cond.Broadcast()
	f.mu.Unlock()
}
