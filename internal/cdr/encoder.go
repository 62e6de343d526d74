// Package cdr implements the OMG Common Data Representation, the binary
// encoding CORBA's GIOP messages carry. It supports both byte orders,
// CDR's natural alignment rules (primitives align to their size relative to
// the start of the stream), strings with trailing NUL, sequences, structs,
// and nested encapsulations (used by IORs and tagged profiles). Value-level
// marshalling for the dyn type system (value.go) is one walk the static type
// drives, with the scalars read and written inline.
//
// # Pooling and buffer-ownership invariants
//
// The invocation hot path reuses encoders through GetEncoder/PutEncoder.
// The rules are:
//
//   - A pooled Encoder is owned exclusively by the goroutine that called
//     GetEncoder until it is handed back with PutEncoder.
//   - Bytes() aliases the encoder's internal buffer. Once PutEncoder is
//     called, every slice previously obtained from Bytes() is invalid: the
//     buffer will be overwritten by an unrelated message. Callers must
//     either finish writing/copying the bytes before PutEncoder, or skip
//     PutEncoder and let the encoder be garbage-collected.
//   - PutEncoder must be called at most once per GetEncoder.
//
// Decoder sub-slice ("Ref") reads return views into the message buffer the
// decoder was constructed over; they are valid only for as long as the
// caller keeps that buffer alive and unmodified (see decoder.go).
package cdr

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// ByteOrder selects the encoding endianness. CDR tags messages and
// encapsulations with a flag octet: 0 = big-endian, 1 = little-endian.
type ByteOrder byte

// Byte-order flag values as they appear on the wire.
const (
	BigEndian    ByteOrder = 0
	LittleEndian ByteOrder = 1
)

// Binary returns the encoding/binary byte order corresponding to the flag,
// for callers (like the GIOP framer) that marshal fields directly.
func (o ByteOrder) Binary() binary.ByteOrder {
	if o == LittleEndian {
		return binary.LittleEndian
	}
	return binary.BigEndian
}

// String returns "big-endian" or "little-endian".
func (o ByteOrder) String() string {
	if o == LittleEndian {
		return "little-endian"
	}
	return "big-endian"
}

// Encoder serializes values into a CDR stream. Alignment is computed
// relative to the start of the stream, so an Encoder corresponds to one
// GIOP message body or one encapsulation. The zero Encoder encodes
// big-endian from offset 0; use NewEncoder to pick the byte order.
type Encoder struct {
	buf   []byte
	order ByteOrder
}

// NewEncoder returns an encoder using the given byte order.
func NewEncoder(order ByteOrder) *Encoder {
	return &Encoder{order: order}
}

// encoderPool recycles encoders (and, transitively, their grown buffers)
// across messages. See the package comment for the ownership rules.
var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// GetEncoder returns a pooled encoder reset to the given byte order. The
// buffer retains the capacity it grew to in previous uses, so steady-state
// message encoding does not allocate.
func GetEncoder(order ByteOrder) *Encoder {
	e := encoderPool.Get().(*Encoder)
	e.order = order
	e.buf = e.buf[:0]
	return e
}

// PutEncoder returns an encoder obtained from GetEncoder to the pool.
// All slices obtained from e.Bytes() become invalid.
func PutEncoder(e *Encoder) {
	if e == nil {
		return
	}
	if cap(e.buf) > maxPooledBuf {
		e.buf = nil // don't let one huge message pin memory in the pool
	}
	encoderPool.Put(e)
}

// maxPooledBuf bounds the buffer capacity kept alive by pooled encoders
// and message-body pools.
const maxPooledBuf = 1 << 20

// Reset truncates the stream to empty, keeping the buffer capacity and
// byte order, so the encoder can be reused for another message.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Grow ensures the buffer can hold n more octets without reallocating.
func (e *Encoder) Grow(n int) {
	if n <= cap(e.buf)-len(e.buf) {
		return
	}
	grown := make([]byte, len(e.buf), len(e.buf)+n)
	copy(grown, e.buf)
	e.buf = grown
}

// Order returns the encoder's byte order.
func (e *Encoder) Order() ByteOrder { return e.order }

// Bytes returns the encoded stream. The returned slice aliases the
// encoder's buffer; it is valid until the next Write call.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the current stream length in octets.
func (e *Encoder) Len() int { return len(e.buf) }

// zeroPad provides alignment padding octets (CDR aligns to at most 8).
var zeroPad [8]byte

// align pads the stream with zero octets so the next write lands on a
// multiple of n (n in {1,2,4,8}).
func (e *Encoder) align(n int) {
	if pad := len(e.buf) % n; pad != 0 {
		e.buf = append(e.buf, zeroPad[:n-pad]...)
	}
}

// WriteOctet appends a raw octet.
func (e *Encoder) WriteOctet(b byte) { e.buf = append(e.buf, b) }

// WriteOctets appends raw octets with no alignment or count prefix.
func (e *Encoder) WriteOctets(b []byte) { e.buf = append(e.buf, b...) }

// WriteBool encodes a boolean as one octet (0 or 1).
func (e *Encoder) WriteBool(v bool) {
	if v {
		e.WriteOctet(1)
	} else {
		e.WriteOctet(0)
	}
}

// WriteChar encodes a CORBA char. CDR chars are single octets; runes
// outside Latin-1 are rejected by the caller (see value.go).
func (e *Encoder) WriteChar(c byte) { e.WriteOctet(c) }

// WriteUShort encodes an unsigned short with 2-octet alignment.
func (e *Encoder) WriteUShort(v uint16) {
	e.align(2)
	if e.order == LittleEndian {
		e.buf = binary.LittleEndian.AppendUint16(e.buf, v)
	} else {
		e.buf = binary.BigEndian.AppendUint16(e.buf, v)
	}
}

// WriteShort encodes a signed short.
func (e *Encoder) WriteShort(v int16) { e.WriteUShort(uint16(v)) }

// WriteULong encodes an unsigned long (32 bits) with 4-octet alignment.
func (e *Encoder) WriteULong(v uint32) {
	e.align(4)
	if e.order == LittleEndian {
		e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
	} else {
		e.buf = binary.BigEndian.AppendUint32(e.buf, v)
	}
}

// WriteLong encodes a signed long (32 bits).
func (e *Encoder) WriteLong(v int32) { e.WriteULong(uint32(v)) }

// WriteULongLong encodes an unsigned long long (64 bits) with 8-octet
// alignment.
func (e *Encoder) WriteULongLong(v uint64) {
	e.align(8)
	if e.order == LittleEndian {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
	} else {
		e.buf = binary.BigEndian.AppendUint64(e.buf, v)
	}
}

// WriteLongLong encodes a signed long long (64 bits).
func (e *Encoder) WriteLongLong(v int64) { e.WriteULongLong(uint64(v)) }

// WriteFloat encodes an IEEE-754 single-precision float.
func (e *Encoder) WriteFloat(v float32) { e.WriteULong(math.Float32bits(v)) }

// WriteDouble encodes an IEEE-754 double-precision float.
func (e *Encoder) WriteDouble(v float64) { e.WriteULongLong(math.Float64bits(v)) }

// WriteString encodes a CDR string: ulong length including the trailing
// NUL, then the octets, then NUL.
func (e *Encoder) WriteString(s string) {
	e.WriteULong(uint32(len(s) + 1))
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, 0)
}

// WriteOctetSeq encodes sequence<octet>: ulong count then raw octets.
func (e *Encoder) WriteOctetSeq(b []byte) {
	e.WriteULong(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// WriteEncapsulation writes a nested encapsulation: an octet sequence whose
// first octet is the byte-order flag of the inner stream. build receives a
// fresh encoder whose alignment starts at zero, per the CDR rules for
// encapsulated data.
func (e *Encoder) WriteEncapsulation(inner ByteOrder, build func(*Encoder) error) error {
	ie := NewEncoder(inner)
	ie.WriteOctet(byte(inner))
	if err := build(ie); err != nil {
		return fmt.Errorf("cdr: building encapsulation: %w", err)
	}
	e.WriteOctetSeq(ie.Bytes())
	return nil
}

// EncodeEncapsulation returns a stand-alone encapsulation (flag octet +
// body) such as the one inside a stringified IOR.
func EncodeEncapsulation(order ByteOrder, build func(*Encoder) error) ([]byte, error) {
	e := NewEncoder(order)
	e.WriteOctet(byte(order))
	if err := build(e); err != nil {
		return nil, fmt.Errorf("cdr: building encapsulation: %w", err)
	}
	return e.Bytes(), nil
}
