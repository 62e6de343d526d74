package cdr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// ErrTruncated reports a read past the end of the CDR stream.
var ErrTruncated = errors.New("cdr: truncated stream")

// ErrBadString reports a malformed CDR string (zero length or missing NUL).
var ErrBadString = errors.New("cdr: malformed string")

// Decoder reads values from a CDR stream produced by an Encoder (or by any
// compliant ORB). Alignment is relative to the start of the stream.
//
// Copy discipline: the plain Read* methods return values that do not alias
// the stream (strings and octet sequences are copied), so they stay valid
// after the message buffer is recycled. The *Ref variants and zero-copy
// mode (SetZeroCopy) return sub-slices of — or string views over — the
// message buffer; they are valid only while the caller keeps that buffer
// alive and unmodified, and must never be used together with pooled
// message bodies that outlive the returned values.
//
// Outside zero-copy mode no DecodeValue result aliases the buffer, but its
// parts share memory with each other: its struct field slices, and its
// strings' bytes, are carved from shared chunks (dyn.Slab), so retaining one
// element or string of a large sequence retains its siblings' chunk too.
type Decoder struct {
	buf      []byte
	pos      int
	order    ByteOrder
	zeroCopy bool
}

// NewDecoder returns a decoder over buf using the given byte order.
func NewDecoder(buf []byte, order ByteOrder) *Decoder {
	return &Decoder{buf: buf, order: order}
}

// Reset re-points the decoder at a new stream, so a stack- or
// struct-embedded Decoder value can be reused without allocating. Zero-copy
// mode is cleared.
func (d *Decoder) Reset(buf []byte, order ByteOrder) {
	d.buf = buf
	d.pos = 0
	d.order = order
	d.zeroCopy = false
}

// SetZeroCopy switches the string/octet-sequence reads to return views of
// the underlying buffer instead of copies. Enable only when the caller owns
// the message buffer for at least as long as the decoded values live.
func (d *Decoder) SetZeroCopy(on bool) { d.zeroCopy = on }

// NewEncapsulationDecoder interprets buf as an encapsulation: the first
// octet is the byte-order flag, and alignment restarts after... at position
// zero of the encapsulation, with the flag octet occupying it.
func NewEncapsulationDecoder(buf []byte) (*Decoder, error) {
	if len(buf) == 0 {
		return nil, fmt.Errorf("%w: empty encapsulation", ErrTruncated)
	}
	var order ByteOrder
	switch buf[0] {
	case 0:
		order = BigEndian
	case 1:
		order = LittleEndian
	default:
		return nil, fmt.Errorf("cdr: invalid byte-order flag %d", buf[0])
	}
	d := NewDecoder(buf, order)
	d.pos = 1 // consume the flag; alignment counts it
	return d, nil
}

// Order returns the decoder's byte order.
func (d *Decoder) Order() ByteOrder { return d.order }

// Remaining returns the number of unread octets.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

// Pos returns the current read offset.
func (d *Decoder) Pos() int { return d.pos }

// next skips the padding before a primitive of size n (1, 2, 4 or 8) and
// returns its n octets, or nil, with the padding skipped, if fewer are left.
// It, u32, u64 and the encoder's writes are small enough to inline, so the
// value walk reads and writes a scalar without a call.
func (d *Decoder) next(n int) []byte {
	d.pos = (d.pos + n - 1) &^ (n - 1)
	if len(d.buf)-d.pos < n {
		return nil
	}
	d.pos += n
	return d.buf[d.pos-n : d.pos]
}

func (d *Decoder) u32(b []byte) uint32 {
	if d.order == LittleEndian {
		return binary.LittleEndian.Uint32(b)
	}
	return binary.BigEndian.Uint32(b)
}

func (d *Decoder) u64(b []byte) uint64 {
	if d.order == LittleEndian {
		return binary.LittleEndian.Uint64(b)
	}
	return binary.BigEndian.Uint64(b)
}

// need reports ErrTruncated unless n more octets are left. n is a wire
// count as read: compared unconverted, a count no int holds on a 32-bit
// platform is refused like any other that overruns.
func (d *Decoder) need(n uint64) error {
	if have := len(d.buf) - d.pos; have < 0 || n > uint64(have) {
		return d.short(n)
	}
	return nil
}

// short is the error for a read of n octets at the current position.
func (d *Decoder) short(n uint64) error {
	return fmt.Errorf("%w: need %d octets at %d, have %d", ErrTruncated, n, d.pos, len(d.buf)-d.pos)
}

// ReadOctet reads one raw octet.
func (d *Decoder) ReadOctet() (byte, error) {
	b := d.next(1)
	if b == nil {
		return 0, d.short(1)
	}
	return b[0], nil
}

// ReadOctets reads n raw octets (copied, unless zero-copy mode is on).
func (d *Decoder) ReadOctets(n int) ([]byte, error) {
	if d.zeroCopy {
		return d.ReadOctetsRef(n)
	}
	if n < 0 {
		return nil, fmt.Errorf("cdr: negative octet count %d", n)
	}
	if err := d.need(uint64(n)); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, d.buf[d.pos:])
	d.pos += n
	return out, nil
}

// ReadOctetsRef reads n raw octets as a sub-slice of the message buffer —
// no copy. The slice is valid only while the buffer is alive and unmodified.
func (d *Decoder) ReadOctetsRef(n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("cdr: negative octet count %d", n)
	}
	if err := d.need(uint64(n)); err != nil {
		return nil, err
	}
	out := d.buf[d.pos : d.pos+n : d.pos+n]
	d.pos += n
	return out, nil
}

// ReadBool reads a boolean octet.
func (d *Decoder) ReadBool() (bool, error) {
	b, err := d.ReadOctet()
	if err != nil {
		return false, err
	}
	return b != 0, nil
}

// ReadChar reads a CORBA char octet.
func (d *Decoder) ReadChar() (byte, error) { return d.ReadOctet() }

// ReadUShort reads an unsigned short.
func (d *Decoder) ReadUShort() (uint16, error) {
	b := d.next(2)
	if b == nil {
		return 0, d.short(2)
	}
	if d.order == LittleEndian {
		return binary.LittleEndian.Uint16(b), nil
	}
	return binary.BigEndian.Uint16(b), nil
}

// ReadShort reads a signed short.
func (d *Decoder) ReadShort() (int16, error) {
	v, err := d.ReadUShort()
	return int16(v), err
}

// ReadULong reads an unsigned long (32 bits).
func (d *Decoder) ReadULong() (uint32, error) {
	b := d.next(4)
	if b == nil {
		return 0, d.short(4)
	}
	return d.u32(b), nil
}

// ReadLong reads a signed long (32 bits).
func (d *Decoder) ReadLong() (int32, error) {
	v, err := d.ReadULong()
	return int32(v), err
}

// ReadULongLong reads an unsigned long long (64 bits).
func (d *Decoder) ReadULongLong() (uint64, error) {
	b := d.next(8)
	if b == nil {
		return 0, d.short(8)
	}
	return d.u64(b), nil
}

// ReadLongLong reads a signed long long (64 bits).
func (d *Decoder) ReadLongLong() (int64, error) {
	v, err := d.ReadULongLong()
	return int64(v), err
}

// ReadFloat reads an IEEE-754 single-precision float.
func (d *Decoder) ReadFloat() (float32, error) {
	v, err := d.ReadULong()
	return math.Float32frombits(v), err
}

// ReadDouble reads an IEEE-754 double-precision float.
func (d *Decoder) ReadDouble() (float64, error) {
	v, err := d.ReadULongLong()
	return math.Float64frombits(v), err
}

// ReadString reads a CDR string (length includes the trailing NUL). The
// returned string is a copy unless zero-copy mode is on, in which case it
// is a view over the message buffer (see SetZeroCopy).
func (d *Decoder) ReadString() (string, error) {
	raw, err := d.stringOctets()
	if err != nil || d.zeroCopy {
		return view(raw), err
	}
	return string(raw), nil
}

// stringOctets reads a CDR string's octets, without the NUL, as a view of
// the message buffer.
func (d *Decoder) stringOctets() ([]byte, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: zero-length string encoding", ErrBadString)
	}
	if err := d.need(uint64(n)); err != nil {
		return nil, err
	}
	raw := d.buf[d.pos : d.pos+int(n)] // need bounds n by an int
	d.pos += int(n)
	if raw[len(raw)-1] != 0 {
		return nil, fmt.Errorf("%w: missing terminating NUL", ErrBadString)
	}
	return raw[:len(raw)-1], nil
}

// view returns raw as a string that shares its memory.
func view(raw []byte) string { return unsafe.String(unsafe.SliceData(raw), len(raw)) }

// ReadOctetSeq reads sequence<octet> (copied, unless zero-copy mode is on).
func (d *Decoder) ReadOctetSeq() ([]byte, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	return d.ReadOctets(int(n))
}

// ReadOctetSeqRef reads sequence<octet> as a sub-slice of the message
// buffer — no copy, same validity rules as ReadOctetsRef.
func (d *Decoder) ReadOctetSeqRef() ([]byte, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	return d.ReadOctetsRef(int(n))
}
