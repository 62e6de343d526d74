package cdr

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"livedev/internal/dyn"
)

func TestAlignmentPadding(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.WriteOctet(1)  // pos 0
	e.WriteULong(2)  // pads to 4
	e.WriteOctet(3)  // pos 8
	e.WriteDouble(4) // pads to 16
	e.WriteOctet(5)  // pos 24
	e.WriteUShort(6) // pads to 26
	if e.Len() != 28 {
		t.Fatalf("encoded length = %d, want 28", e.Len())
	}
	want := []byte{
		1, 0, 0, 0, // octet + pad
		0, 0, 0, 2, // ulong
		3, 0, 0, 0, 0, 0, 0, 0, // octet + pad to 16
		0x40, 0x10, 0, 0, 0, 0, 0, 0, // double 4.0
		5, 0, // octet + pad
		0, 6, // ushort
	}
	if !bytes.Equal(e.Bytes(), want) {
		t.Errorf("stream = % x\nwant     % x", e.Bytes(), want)
	}

	d := NewDecoder(e.Bytes(), BigEndian)
	if b, _ := d.ReadOctet(); b != 1 {
		t.Error("octet 1")
	}
	if v, _ := d.ReadULong(); v != 2 {
		t.Error("ulong 2")
	}
	if b, _ := d.ReadOctet(); b != 3 {
		t.Error("octet 3")
	}
	if v, _ := d.ReadDouble(); v != 4 {
		t.Error("double 4")
	}
	if b, _ := d.ReadOctet(); b != 5 {
		t.Error("octet 5")
	}
	if v, _ := d.ReadUShort(); v != 6 {
		t.Error("ushort 6")
	}
	if d.Remaining() != 0 {
		t.Errorf("remaining = %d", d.Remaining())
	}
}

func TestLittleEndian(t *testing.T) {
	e := NewEncoder(LittleEndian)
	e.WriteULong(0x01020304)
	want := []byte{4, 3, 2, 1}
	if !bytes.Equal(e.Bytes(), want) {
		t.Errorf("LE ulong = % x", e.Bytes())
	}
	d := NewDecoder(e.Bytes(), LittleEndian)
	if v, err := d.ReadULong(); err != nil || v != 0x01020304 {
		t.Errorf("ReadULong = %x, %v", v, err)
	}
}

func TestByteOrderString(t *testing.T) {
	if BigEndian.String() != "big-endian" || LittleEndian.String() != "little-endian" {
		t.Error("ByteOrder.String")
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, s := range []string{"", "x", "hello world", "embedded\ttab", "ünïcödé"} {
		e := NewEncoder(BigEndian)
		e.WriteString(s)
		d := NewDecoder(e.Bytes(), BigEndian)
		got, err := d.ReadString()
		if err != nil {
			t.Fatalf("ReadString(%q): %v", s, err)
		}
		if got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestStringErrors(t *testing.T) {
	// Zero-length string encoding is illegal (length includes NUL).
	e := NewEncoder(BigEndian)
	e.WriteULong(0)
	d := NewDecoder(e.Bytes(), BigEndian)
	if _, err := d.ReadString(); !errors.Is(err, ErrBadString) {
		t.Errorf("zero-length: %v", err)
	}
	// Missing NUL.
	e = NewEncoder(BigEndian)
	e.WriteULong(2)
	e.WriteOctets([]byte{'a', 'b'})
	d = NewDecoder(e.Bytes(), BigEndian)
	if _, err := d.ReadString(); !errors.Is(err, ErrBadString) {
		t.Errorf("missing NUL: %v", err)
	}
	// Truncated payload, and lengths from 2^31, which an int holds only on
	// a 64-bit platform: converted first, they went negative on a 32-bit
	// one, passed the bounds check and panicked slicing.
	for _, n := range []uint32{10, 1 << 31, 0xFFFFFFF0} {
		e = NewEncoder(BigEndian)
		e.WriteULong(n)
		e.WriteOctets([]byte("abc\x00"))
		d = NewDecoder(e.Bytes(), BigEndian)
		if _, err := d.ReadString(); !errors.Is(err, ErrTruncated) {
			t.Errorf("length %#x: %v", n, err)
		}
		d = NewDecoder(e.Bytes(), BigEndian)
		if _, err := DecodeValue(d, dyn.StringT); !errors.Is(err, ErrTruncated) {
			t.Errorf("length %#x, as a value: %v", n, err)
		}
	}
}

func TestTruncatedReads(t *testing.T) {
	d := NewDecoder(nil, BigEndian)
	if _, err := d.ReadOctet(); !errors.Is(err, ErrTruncated) {
		t.Error("octet")
	}
	if _, err := d.ReadUShort(); !errors.Is(err, ErrTruncated) {
		t.Error("ushort")
	}
	if _, err := d.ReadULong(); !errors.Is(err, ErrTruncated) {
		t.Error("ulong")
	}
	if _, err := d.ReadULongLong(); !errors.Is(err, ErrTruncated) {
		t.Error("ulonglong")
	}
	if _, err := d.ReadOctets(4); !errors.Is(err, ErrTruncated) {
		t.Error("octets")
	}
	if _, err := d.ReadOctets(-1); err == nil {
		t.Error("negative count should fail")
	}
}

func TestSignedRoundTrip(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.WriteShort(-2)
	e.WriteLong(-3)
	e.WriteLongLong(-4)
	e.WriteFloat(-1.5)
	e.WriteDouble(math.Pi)
	e.WriteBool(true)
	e.WriteBool(false)
	e.WriteChar('z')

	d := NewDecoder(e.Bytes(), BigEndian)
	if v, _ := d.ReadShort(); v != -2 {
		t.Error("short")
	}
	if v, _ := d.ReadLong(); v != -3 {
		t.Error("long")
	}
	if v, _ := d.ReadLongLong(); v != -4 {
		t.Error("longlong")
	}
	if v, _ := d.ReadFloat(); v != -1.5 {
		t.Error("float")
	}
	if v, _ := d.ReadDouble(); v != math.Pi {
		t.Error("double")
	}
	if v, _ := d.ReadBool(); !v {
		t.Error("bool true")
	}
	if v, _ := d.ReadBool(); v {
		t.Error("bool false")
	}
	if v, _ := d.ReadChar(); v != 'z' {
		t.Error("char")
	}
}

func TestOctetSeqRoundTrip(t *testing.T) {
	payload := []byte{9, 8, 7}
	e := NewEncoder(LittleEndian)
	e.WriteOctetSeq(payload)
	d := NewDecoder(e.Bytes(), LittleEndian)
	got, err := d.ReadOctetSeq()
	if err != nil || !bytes.Equal(got, payload) {
		t.Errorf("octet seq = % x, %v", got, err)
	}
}

func TestEncapsulationRoundTrip(t *testing.T) {
	// Outer stream in BE containing a LE encapsulation.
	e := NewEncoder(BigEndian)
	e.WriteOctet(0xAA) // desync outer alignment on purpose
	err := e.WriteEncapsulation(LittleEndian, func(ie *Encoder) error {
		ie.WriteULong(0xDEADBEEF) // aligns relative to encapsulation start
		ie.WriteString("inner")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	d := NewDecoder(e.Bytes(), BigEndian)
	if _, err := d.ReadOctet(); err != nil {
		t.Fatal(err)
	}
	blob, err := d.ReadOctetSeq()
	if err != nil {
		t.Fatal(err)
	}
	id, err := NewEncapsulationDecoder(blob)
	if err != nil {
		t.Fatal(err)
	}
	if id.Order() != LittleEndian {
		t.Errorf("inner order = %v", id.Order())
	}
	if v, err := id.ReadULong(); err != nil || v != 0xDEADBEEF {
		t.Errorf("inner ulong = %x, %v", v, err)
	}
	if s, err := id.ReadString(); err != nil || s != "inner" {
		t.Errorf("inner string = %q, %v", s, err)
	}
}

func TestEncapsulationErrors(t *testing.T) {
	if _, err := NewEncapsulationDecoder(nil); !errors.Is(err, ErrTruncated) {
		t.Error("empty encapsulation")
	}
	if _, err := NewEncapsulationDecoder([]byte{7}); err == nil {
		t.Error("bad flag should fail")
	}
	bad := errors.New("builder failed")
	e := NewEncoder(BigEndian)
	if err := e.WriteEncapsulation(BigEndian, func(*Encoder) error { return bad }); !errors.Is(err, bad) {
		t.Error("builder error should propagate")
	}
	if _, err := EncodeEncapsulation(BigEndian, func(*Encoder) error { return bad }); !errors.Is(err, bad) {
		t.Error("EncodeEncapsulation builder error should propagate")
	}
}

// Property: for random primitive payloads in both byte orders, what goes in
// comes out.
func TestPrimitiveRoundTripProperty(t *testing.T) {
	f := func(a uint16, b uint32, c uint64, fl float32, db float64, s string, le bool) bool {
		order := BigEndian
		if le {
			order = LittleEndian
		}
		e := NewEncoder(order)
		e.WriteUShort(a)
		e.WriteULong(b)
		e.WriteULongLong(c)
		e.WriteFloat(fl)
		e.WriteDouble(db)
		e.WriteString(s)

		d := NewDecoder(e.Bytes(), order)
		ga, _ := d.ReadUShort()
		gb, _ := d.ReadULong()
		gc, _ := d.ReadULongLong()
		gf, _ := d.ReadFloat()
		gd, _ := d.ReadDouble()
		gs, err := d.ReadString()
		if err != nil {
			return false
		}
		floatOK := (math.Float32bits(gf) == math.Float32bits(fl)) &&
			(math.Float64bits(gd) == math.Float64bits(db))
		return ga == a && gb == b && gc == c && floatOK && gs == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
