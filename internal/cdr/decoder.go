package cdr

import (
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
// In either mode the parts of one DecodeValue result share memory with each
// other: the field slices of the structs of a decoded sequence are carved
// from one backing array (dyn.Slab), so retaining one element of a large
// sequence retains the field values of all of them.
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

func (d *Decoder) align(n int) {
	for d.pos%n != 0 {
		d.pos++
	}
}

func (d *Decoder) need(n int) error {
	if d.pos+n > len(d.buf) {
		return fmt.Errorf("%w: need %d octets at %d, have %d", ErrTruncated, n, d.pos, len(d.buf)-d.pos)
	}
	return nil
}

// ReadOctet reads one raw octet.
func (d *Decoder) ReadOctet() (byte, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	b := d.buf[d.pos]
	d.pos++
	return b, nil
}

// ReadOctets reads n raw octets (copied, unless zero-copy mode is on).
func (d *Decoder) ReadOctets(n int) ([]byte, error) {
	if d.zeroCopy {
		return d.ReadOctetsRef(n)
	}
	if n < 0 {
		return nil, fmt.Errorf("cdr: negative octet count %d", n)
	}
	if err := d.need(n); err != nil {
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
	if err := d.need(n); err != nil {
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
	d.align(2)
	if err := d.need(2); err != nil {
		return 0, err
	}
	v := d.order.order().Uint16(d.buf[d.pos:])
	d.pos += 2
	return v, nil
}

// ReadShort reads a signed short.
func (d *Decoder) ReadShort() (int16, error) {
	v, err := d.ReadUShort()
	return int16(v), err
}

// ReadULong reads an unsigned long (32 bits).
func (d *Decoder) ReadULong() (uint32, error) {
	d.align(4)
	if err := d.need(4); err != nil {
		return 0, err
	}
	v := d.order.order().Uint32(d.buf[d.pos:])
	d.pos += 4
	return v, nil
}

// ReadLong reads a signed long (32 bits).
func (d *Decoder) ReadLong() (int32, error) {
	v, err := d.ReadULong()
	return int32(v), err
}

// ReadULongLong reads an unsigned long long (64 bits).
func (d *Decoder) ReadULongLong() (uint64, error) {
	d.align(8)
	if err := d.need(8); err != nil {
		return 0, err
	}
	v := d.order.order().Uint64(d.buf[d.pos:])
	d.pos += 8
	return v, nil
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
	n, err := d.ReadULong()
	if err != nil {
		return "", err
	}
	if n == 0 {
		return "", fmt.Errorf("%w: zero-length string encoding", ErrBadString)
	}
	if err := d.need(int(n)); err != nil {
		return "", err
	}
	raw := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	if raw[len(raw)-1] != 0 {
		return "", fmt.Errorf("%w: missing terminating NUL", ErrBadString)
	}
	raw = raw[:len(raw)-1]
	if d.zeroCopy {
		if len(raw) == 0 {
			return "", nil
		}
		return unsafe.String(&raw[0], len(raw)), nil
	}
	return string(raw), nil
}

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
