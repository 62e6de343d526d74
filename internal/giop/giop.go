// Package giop implements the General Inter-ORB Protocol message layer
// (GIOP 1.0): the framing CORBA requests and replies travel in over IIOP.
// A message is a 12-octet header (magic "GIOP", version, byte-order flag,
// message type, body size) followed by a CDR body. This package marshals
// and unmarshals the header, the Request and Reply message headers, and
// system-exception reply bodies; argument and result values are encoded by
// the caller with package cdr against the interface's signatures.
//
// # Pooling and buffer-ownership invariants
//
// The hot path avoids per-message allocations in three places:
//
//   - WriteMessage assembles header + body in one pooled frame buffer and
//     issues a single Write; the frame returns to the pool before
//     WriteMessage returns, so callers never see it.
//   - ReadMessagePooled reads the body into a pooled buffer. The returned
//     Message owns that buffer until Recycle is called; after Recycle, the
//     Body slice — and anything aliasing it, such as decoder sub-slice
//     reads or the RequestHeader produced by DecodeRequest — is invalid.
//   - EncodeRequest/EncodeReply encode into a pooled cdr.Encoder whose
//     buffer the returned Message aliases; Recycle hands the encoder back.
//
// Recycle is optional (an unrecycled message is simply garbage-collected)
// and must be called at most once, only after every alias of Body is dead.
package giop

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"livedev/internal/cdr"
)

// MsgType identifies a GIOP message.
type MsgType byte

// GIOP 1.0 message types (we use Request, Reply and CloseConnection).
const (
	MsgRequest         MsgType = 0
	MsgReply           MsgType = 1
	MsgCancelRequest   MsgType = 2
	MsgLocateRequest   MsgType = 3
	MsgLocateReply     MsgType = 4
	MsgCloseConnection MsgType = 5
	MsgMessageError    MsgType = 6
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgRequest:
		return "Request"
	case MsgReply:
		return "Reply"
	case MsgCancelRequest:
		return "CancelRequest"
	case MsgLocateRequest:
		return "LocateRequest"
	case MsgLocateReply:
		return "LocateReply"
	case MsgCloseConnection:
		return "CloseConnection"
	case MsgMessageError:
		return "MessageError"
	default:
		return fmt.Sprintf("MsgType(%d)", byte(t))
	}
}

// ReplyStatus is the GIOP reply status.
type ReplyStatus uint32

// GIOP 1.0 reply status values.
const (
	ReplyNoException     ReplyStatus = 0
	ReplyUserException   ReplyStatus = 1
	ReplySystemException ReplyStatus = 2
	ReplyLocationForward ReplyStatus = 3
)

// String names the reply status.
func (s ReplyStatus) String() string {
	switch s {
	case ReplyNoException:
		return "NO_EXCEPTION"
	case ReplyUserException:
		return "USER_EXCEPTION"
	case ReplySystemException:
		return "SYSTEM_EXCEPTION"
	case ReplyLocationForward:
		return "LOCATION_FORWARD"
	default:
		return fmt.Sprintf("ReplyStatus(%d)", uint32(s))
	}
}

// Protocol errors.
var (
	ErrBadMagic   = errors.New("giop: bad magic (not a GIOP message)")
	ErrBadVersion = errors.New("giop: unsupported GIOP version")
	ErrTooLarge   = errors.New("giop: message exceeds size limit")
)

// MaxMessageSize bounds accepted message bodies; a defence against
// malformed or hostile size fields.
const MaxMessageSize = 16 << 20

var magic = [4]byte{'G', 'I', 'O', 'P'}

// headerLen is the fixed GIOP message header length.
const headerLen = 12

// Message is one framed GIOP message: its type, the byte order its body is
// encoded in, and the raw body octets (alignment relative to body start).
//
// Note on alignment: GIOP 1.0 computes CDR alignment from the start of the
// 12-octet message header, and 12 ≡ 0 (mod 4) with only 8-octet alignment
// differing. Like several production ORBs we re-base alignment at the body
// start and make the first body field a ulong (request id), so the two
// conventions agree for every field our headers emit.
type Message struct {
	Type  MsgType
	Order cdr.ByteOrder
	Body  []byte

	// Provenance of Body, for Recycle. Zero means Body is caller-owned
	// (or nil) and Recycle is a no-op.
	src messageSource
	enc *cdr.Encoder // set when src == srcEncoder
}

type messageSource uint8

const (
	srcCallerOwned messageSource = iota
	srcBodyPool                  // Body came from the internal body pool
	srcEncoder                   // Body aliases enc's buffer
)

// Recycle returns the message's body storage to its pool. It must be called
// at most once, and only once nothing aliases Body anymore (decoders,
// sub-slice reads, decoded headers). Calling it on a caller-owned message
// is a no-op, so generic cleanup paths can call it unconditionally.
func (m *Message) Recycle() {
	switch m.src {
	case srcBodyPool:
		putBody(m.Body)
	case srcEncoder:
		cdr.PutEncoder(m.enc)
	}
	m.src = srcCallerOwned
	m.enc = nil
	m.Body = nil
}

// Disown detaches the message's body from its pool: Recycle becomes a
// no-op and the Body slice is safe to retain indefinitely (it will simply
// be garbage-collected). Used when a pooled message escapes to a caller
// whose lifetime the transport cannot see.
func (m *Message) Disown() {
	m.src = srcCallerOwned
	m.enc = nil
}

// framePool recycles the combined header+body write buffers.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// bodyPool recycles message-body buffers filled by ReadMessagePooled.
var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// maxPooledBuf bounds buffer capacity retained by the pools.
const maxPooledBuf = 1 << 20

func putBody(b []byte) {
	if b == nil || cap(b) > maxPooledBuf {
		return
	}
	b = b[:0]
	bodyPool.Put(&b)
}

// giopPrefix is the constant first six octets of every GIOP 1.0 header.
var giopPrefix = [6]byte{'G', 'I', 'O', 'P', 1, 0}

// WriteMessage frames and writes a GIOP message: header and body leave in a
// single Write call (one syscall on a net.Conn), assembled in a pooled
// frame buffer that never escapes.
func WriteMessage(w io.Writer, m Message) error {
	if len(m.Body) > MaxMessageSize {
		return fmt.Errorf("%w: %d octets", ErrTooLarge, len(m.Body))
	}
	fp := framePool.Get().(*[]byte)
	frame := (*fp)[:0]
	frame = append(frame, giopPrefix[:]...)
	frame = append(frame, byte(m.Order), byte(m.Type))
	frame = append(frame, 0, 0, 0, 0)
	m.Order.Binary().PutUint32(frame[len(frame)-4:], uint32(len(m.Body)))
	frame = append(frame, m.Body...)
	_, err := w.Write(frame)
	if cap(frame) <= maxPooledBuf {
		*fp = frame
		framePool.Put(fp)
	}
	if err != nil {
		return fmt.Errorf("giop: writing message: %w", err)
	}
	return nil
}

// ReadMessage reads one framed GIOP message into a freshly allocated body
// the caller owns outright.
func ReadMessage(r io.Reader) (Message, error) {
	return readMessage(r, false)
}

// ReadMessagePooled reads one framed GIOP message into a pooled body
// buffer. The caller must call Recycle on the returned message once nothing
// references its Body (see the package comment).
func ReadMessagePooled(r io.Reader) (Message, error) {
	return readMessage(r, true)
}

func readMessage(r io.Reader, pooled bool) (Message, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Message{}, io.EOF
		}
		return Message{}, fmt.Errorf("giop: reading header: %w", err)
	}
	if [4]byte(hdr[:4]) != magic {
		return Message{}, ErrBadMagic
	}
	if hdr[4] != 1 || hdr[5] != 0 {
		return Message{}, fmt.Errorf("%w: %d.%d", ErrBadVersion, hdr[4], hdr[5])
	}
	var order cdr.ByteOrder
	switch hdr[6] {
	case 0:
		order = cdr.BigEndian
	case 1:
		order = cdr.LittleEndian
	default:
		return Message{}, fmt.Errorf("giop: invalid byte-order flag %d", hdr[6])
	}
	msgType := MsgType(hdr[7])
	size := order.Binary().Uint32(hdr[8:12])
	if size > MaxMessageSize {
		return Message{}, fmt.Errorf("%w: %d octets", ErrTooLarge, size)
	}
	var body []byte
	src := srcCallerOwned
	if pooled {
		bp := bodyPool.Get().(*[]byte)
		if cap(*bp) >= int(size) {
			body = (*bp)[:size]
		} else {
			bodyPool.Put(bp)
			body = make([]byte, size)
		}
		src = srcBodyPool
	} else {
		body = make([]byte, size)
	}
	if _, err := io.ReadFull(r, body); err != nil {
		if src == srcBodyPool {
			putBody(body)
		}
		return Message{}, fmt.Errorf("giop: reading body: %w", err)
	}
	return Message{Type: msgType, Order: order, Body: body, src: src}, nil
}

// RequestHeader is the GIOP 1.0 request header. ServiceContext is omitted
// from the struct: requests always carry an empty list, and DecodeRequest
// skips whatever list a peer sends. Replies do use the list — a
// BAD_OPERATION reply carries the current interface document in one
// (ReplyHeader.Contexts, DocContext).
//
// When produced by DecodeRequest, ObjectKey and Principal are sub-slices of
// the message body: they are valid only until the message is recycled and
// must not be retained or mutated by handlers.
type RequestHeader struct {
	RequestID        uint32
	ResponseExpected bool
	ObjectKey        []byte
	Operation        string
	Principal        []byte
}

// EncodeRequest builds a Request message: header followed by the
// already-encoded argument body produced by enc (may be nil for no args).
// The returned message's body lives in a pooled encoder; call Recycle once
// it has been written (see the package comment).
func EncodeRequest(order cdr.ByteOrder, h RequestHeader, args func(*cdr.Encoder) error) (Message, error) {
	e := cdr.GetEncoder(order)
	e.WriteULong(0) // empty service context list
	e.WriteULong(h.RequestID)
	e.WriteBool(h.ResponseExpected)
	e.WriteOctetSeq(h.ObjectKey)
	e.WriteString(h.Operation)
	e.WriteOctetSeq(h.Principal)
	if args != nil {
		if err := args(e); err != nil {
			cdr.PutEncoder(e)
			return Message{}, fmt.Errorf("giop: encoding request args: %w", err)
		}
	}
	return Message{Type: MsgRequest, Order: order, Body: e.Bytes(), src: srcEncoder, enc: e}, nil
}

// DecodeRequest parses a Request body, returning the header and a decoder
// positioned at the first argument.
func DecodeRequest(m Message) (RequestHeader, *cdr.Decoder, error) {
	if m.Type != MsgRequest {
		return RequestHeader{}, nil, fmt.Errorf("giop: expected Request, got %s", m.Type)
	}
	d := cdr.NewDecoder(m.Body, m.Order)
	nctx, err := d.ReadULong()
	if err != nil {
		return RequestHeader{}, nil, fmt.Errorf("giop: request service context: %w", err)
	}
	for i := uint32(0); i < nctx; i++ {
		if _, err := d.ReadULong(); err != nil { // context id
			return RequestHeader{}, nil, fmt.Errorf("giop: service context %d: %w", i, err)
		}
		if _, err := d.ReadOctetSeq(); err != nil { // context data
			return RequestHeader{}, nil, fmt.Errorf("giop: service context %d: %w", i, err)
		}
	}
	var h RequestHeader
	if h.RequestID, err = d.ReadULong(); err != nil {
		return RequestHeader{}, nil, fmt.Errorf("giop: request id: %w", err)
	}
	if h.ResponseExpected, err = d.ReadBool(); err != nil {
		return RequestHeader{}, nil, fmt.Errorf("giop: response_expected: %w", err)
	}
	// ObjectKey and Principal are transient routing metadata: sub-slice
	// reads avoid two copies per request (see RequestHeader's doc comment).
	if h.ObjectKey, err = d.ReadOctetSeqRef(); err != nil {
		return RequestHeader{}, nil, fmt.Errorf("giop: object key: %w", err)
	}
	if h.Operation, err = d.ReadString(); err != nil {
		return RequestHeader{}, nil, fmt.Errorf("giop: operation: %w", err)
	}
	if h.Principal, err = d.ReadOctetSeqRef(); err != nil {
		return RequestHeader{}, nil, fmt.Errorf("giop: principal: %w", err)
	}
	return h, d, nil
}

// EncodeCancelRequest builds a CancelRequest message for requestID — the
// GIOP notification a client sends when it is no longer interested in the
// reply (here: the invoking context was cancelled). The returned message's
// body lives in a pooled encoder; call Recycle once it has been written.
func EncodeCancelRequest(order cdr.ByteOrder, requestID uint32) Message {
	e := cdr.GetEncoder(order)
	e.WriteULong(requestID)
	return Message{Type: MsgCancelRequest, Order: order, Body: e.Bytes(), src: srcEncoder, enc: e}
}

// DecodeCancelRequest parses a CancelRequest body, returning the request ID
// the peer abandoned.
func DecodeCancelRequest(m Message) (uint32, error) {
	if m.Type != MsgCancelRequest {
		return 0, fmt.Errorf("giop: expected CancelRequest, got %s", m.Type)
	}
	d := cdr.NewDecoder(m.Body, m.Order)
	id, err := d.ReadULong()
	if err != nil {
		return 0, fmt.Errorf("giop: cancel request id: %w", err)
	}
	return id, nil
}

// ServiceContext is one entry of a GIOP service context list: an id and
// its octets, by convention an encapsulation.
type ServiceContext struct {
	ID   uint32
	Data []byte
}

// ReplyHeader is the GIOP 1.0 reply header.
type ReplyHeader struct {
	// Contexts is the reply's service context list, empty on every reply
	// but a stale call's BAD_OPERATION. DecodeReply returns the entries'
	// Data as sub-slices of the message body, valid until it is recycled.
	Contexts  []ServiceContext
	RequestID uint32
	Status    ReplyStatus
}

// EncodeReply builds a Reply message with a body produced by result (may be
// nil for void results or when the status carries no body). The returned
// message's body lives in a pooled encoder; call Recycle once it has been
// written (see the package comment).
func EncodeReply(order cdr.ByteOrder, h ReplyHeader, result func(*cdr.Encoder) error) (Message, error) {
	e := cdr.GetEncoder(order)
	e.WriteULong(uint32(len(h.Contexts)))
	for _, sc := range h.Contexts {
		e.WriteULong(sc.ID)
		e.WriteOctetSeq(sc.Data)
	}
	e.WriteULong(h.RequestID)
	e.WriteULong(uint32(h.Status))
	if result != nil {
		if err := result(e); err != nil {
			cdr.PutEncoder(e)
			return Message{}, fmt.Errorf("giop: encoding reply body: %w", err)
		}
	}
	return Message{Type: MsgReply, Order: order, Body: e.Bytes(), src: srcEncoder, enc: e}, nil
}

// DecodeReply parses a Reply body, returning the header and a decoder
// positioned at the result (or exception) body.
func DecodeReply(m Message) (ReplyHeader, *cdr.Decoder, error) {
	if m.Type != MsgReply {
		return ReplyHeader{}, nil, fmt.Errorf("giop: expected Reply, got %s", m.Type)
	}
	d := cdr.NewDecoder(m.Body, m.Order)
	nctx, err := d.ReadULong()
	if err != nil {
		return ReplyHeader{}, nil, fmt.Errorf("giop: reply service context: %w", err)
	}
	var h ReplyHeader
	if nctx > 0 {
		// Each entry takes at least eight octets, which bounds what a lying
		// count can make us allocate by the body's own length.
		if int64(nctx) > int64(d.Remaining()/8) {
			return ReplyHeader{}, nil, fmt.Errorf("giop: reply claims %d service contexts in %d octets", nctx, d.Remaining())
		}
		h.Contexts = make([]ServiceContext, nctx)
	}
	for i := range h.Contexts {
		sc := &h.Contexts[i]
		if sc.ID, err = d.ReadULong(); err == nil {
			if sc.Data, err = d.ReadOctetSeqRef(); err == nil {
				err = zeroPadding(d, 4)
			}
		}
		if err != nil {
			return ReplyHeader{}, nil, fmt.Errorf("giop: service context %d: %w", i, err)
		}
	}
	if h.RequestID, err = d.ReadULong(); err != nil {
		return ReplyHeader{}, nil, fmt.Errorf("giop: reply request id: %w", err)
	}
	st, err := d.ReadULong()
	if err != nil {
		return ReplyHeader{}, nil, fmt.Errorf("giop: reply status: %w", err)
	}
	h.Status = ReplyStatus(st)
	return h, d, nil
}

// zeroPadding consumes the octets that align d to a multiple of n, refusing
// any that is not zero, so that whatever the decoders here accept
// re-encodes byte for byte.
func zeroPadding(d *cdr.Decoder, n int) error {
	for d.Pos()%n != 0 {
		b, err := d.ReadOctet()
		if err != nil {
			return err
		}
		if b != 0 {
			return fmt.Errorf("giop: nonzero alignment padding at %d", d.Pos()-1)
		}
	}
	return nil
}
