package cdr

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"livedev/internal/dyn"
)

func roundTrip(t *testing.T, v dyn.Value, order ByteOrder) dyn.Value {
	t.Helper()
	e := NewEncoder(order)
	if err := EncodeValue(e, v); err != nil {
		t.Fatalf("EncodeValue(%v): %v", v, err)
	}
	d := NewDecoder(e.Bytes(), order)
	got, err := DecodeValue(d, v.Type())
	if err != nil {
		t.Fatalf("DecodeValue(%v): %v", v, err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("decode left %d octets", d.Remaining())
	}
	return got
}

func TestValueRoundTripScalars(t *testing.T) {
	vals := []dyn.Value{
		dyn.VoidValue(),
		dyn.BoolValue(true),
		dyn.BoolValue(false),
		dyn.CharValue('Q'),
		dyn.Int32Value(-123456),
		dyn.Int64Value(1 << 61),
		dyn.Float32Value(3.25),
		dyn.Float64Value(-2.5e300),
		dyn.StringValue("CORBA says hi"),
	}
	for _, order := range []ByteOrder{BigEndian, LittleEndian} {
		for _, v := range vals {
			got := roundTrip(t, v, order)
			if !got.Equal(v) {
				t.Errorf("%v round trip (%v) -> %v", v, order, got)
			}
		}
	}
}

func TestValueRoundTripComposites(t *testing.T) {
	msg := dyn.MustStructOf("Message",
		dyn.StructField{Name: "from", Type: dyn.StringT},
		dyn.StructField{Name: "id", Type: dyn.Int64T},
		dyn.StructField{Name: "urgent", Type: dyn.Boolean},
	)
	box := dyn.MustStructOf("Box",
		dyn.StructField{Name: "msgs", Type: dyn.SequenceOf(msg)},
		dyn.StructField{Name: "count", Type: dyn.Int32T},
	)
	m1 := dyn.MustStructValue(msg, dyn.StringValue("alice"), dyn.Int64Value(7), dyn.BoolValue(true))
	m2 := dyn.MustStructValue(msg, dyn.StringValue("bob"), dyn.Int64Value(8), dyn.BoolValue(false))
	b := dyn.MustStructValue(box,
		dyn.MustSequenceValue(msg, m1, m2),
		dyn.Int32Value(2),
	)
	for _, order := range []ByteOrder{BigEndian, LittleEndian} {
		if got := roundTrip(t, b, order); !got.Equal(b) {
			t.Errorf("composite round trip (%v) failed:\n got %v\nwant %v", order, got, b)
		}
	}
	empty := dyn.MustSequenceValue(dyn.Int32T)
	if got := roundTrip(t, empty, BigEndian); got.Len() != 0 {
		t.Error("empty sequence round trip")
	}
}

func TestEncodeWideCharRejected(t *testing.T) {
	e := NewEncoder(BigEndian)
	if err := EncodeValue(e, dyn.CharValue('λ')); err == nil {
		t.Error("chars beyond one octet must be rejected")
	}
	// Inside a struct the error is wrapped with field context.
	s := dyn.MustStructOf("S", dyn.StructField{Name: "c", Type: dyn.Char})
	if err := EncodeValue(e, dyn.MustStructValue(s, dyn.CharValue('λ'))); err == nil {
		t.Error("nested wide char must be rejected")
	}
}

func TestDecodeHostileSequenceLength(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.WriteULong(0xFFFFFFF0) // absurd element count
	d := NewDecoder(e.Bytes(), BigEndian)
	if _, err := DecodeValue(d, dyn.SequenceOf(dyn.Int32T)); !errors.Is(err, ErrTruncated) {
		t.Errorf("hostile length: %v", err)
	}
}

// TestDecodeLyingSequenceLength: a 64 KiB body whose length prefix claims
// more Items than its octets could hold is refused, and what the claim made
// the decoder allocate on the way stays a small multiple of the body. The
// guard used to ask one octet of every claimed element, so the first claim
// here bought 64 Ki values before one was read (5 MB then; 3 MB of values
// and field slab now, had the guard stayed).
func TestDecodeLyingSequenceLength(t *testing.T) {
	vals := make([]dyn.Value, 2700)
	for i := range vals {
		vals[i] = dyn.Zero(itemType)
	}
	e := NewEncoder(BigEndian)
	if err := EncodeValue(e, dyn.MustSequenceValue(itemType, vals...)); err != nil {
		t.Fatal(err)
	}
	body := e.Bytes()
	if len(body) < 63<<10 || len(body) > 64<<10 {
		t.Fatalf("body is %d octets, want about 64 KiB", len(body))
	}
	typ := dyn.SequenceOf(itemType)
	room := (len(body) - 4) / minSize(itemType)
	for _, claim := range []int{
		len(body) - 4, // an octet each: what the old guard let through
		room + 1,      // the first claim the guard refuses outright
		room,          // admitted on its minimum sizes, 2 700 padded Items in, truncated
	} {
		binary.BigEndian.PutUint32(body, uint32(claim))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeValue(NewDecoder(body, BigEndian), typ)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("claim of %d elements: %v, want ErrTruncated", claim, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("claim of %d elements in %d octets allocated %d bytes, want under 1 MiB", claim, len(body), got)
		}
	}
}

func TestDecodeTruncatedStruct(t *testing.T) {
	s := dyn.MustStructOf("S",
		dyn.StructField{Name: "a", Type: dyn.Int32T},
		dyn.StructField{Name: "b", Type: dyn.StringT})
	e := NewEncoder(BigEndian)
	e.WriteLong(1) // only field a
	d := NewDecoder(e.Bytes(), BigEndian)
	if _, err := DecodeValue(d, s); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated struct: %v", err)
	}
}

// randomCDRValue builds values whose types the CDR mapping supports
// (chars restricted to one octet).
func randomCDRValue(r *rand.Rand, depth int) dyn.Value {
	k := r.Intn(9)
	if depth <= 0 && k >= 7 {
		k = r.Intn(7)
	}
	switch k {
	case 0:
		return dyn.BoolValue(r.Intn(2) == 0)
	case 1:
		return dyn.CharValue(rune(r.Intn(256)))
	case 2:
		return dyn.Int32Value(int32(r.Uint32()))
	case 3:
		return dyn.Int64Value(int64(r.Uint64()))
	case 4:
		return dyn.Float32Value(float32(r.NormFloat64()))
	case 5:
		return dyn.Float64Value(r.NormFloat64())
	case 6:
		n := r.Intn(20)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(' ' + r.Intn(94))
		}
		return dyn.StringValue(string(b))
	case 7:
		elem := randomCDRValue(r, depth-1)
		n := r.Intn(4)
		vals := make([]dyn.Value, 0, n)
		for i := 0; i < n; i++ {
			vals = append(vals, cloneShape(r, elem))
		}
		return dyn.MustSequenceValue(elem.Type(), vals...)
	default:
		nf := 1 + r.Intn(3)
		fields := make([]dyn.StructField, nf)
		vals := make([]dyn.Value, nf)
		for i := 0; i < nf; i++ {
			fv := randomCDRValue(r, depth-1)
			fields[i] = dyn.StructField{Name: string(rune('a' + i)), Type: fv.Type()}
			vals[i] = fv
		}
		st := dyn.MustStructOf("R", fields...)
		return dyn.MustStructValue(st, vals...)
	}
}

// cloneShape makes another random value with exactly the same type as v.
func cloneShape(r *rand.Rand, v dyn.Value) dyn.Value {
	t := v.Type()
	switch t.Kind() {
	case dyn.KindBoolean:
		return dyn.BoolValue(r.Intn(2) == 0)
	case dyn.KindChar:
		return dyn.CharValue(rune(r.Intn(256)))
	case dyn.KindInt32:
		return dyn.Int32Value(int32(r.Uint32()))
	case dyn.KindInt64:
		return dyn.Int64Value(int64(r.Uint64()))
	case dyn.KindFloat32:
		return dyn.Float32Value(float32(r.NormFloat64()))
	case dyn.KindFloat64:
		return dyn.Float64Value(r.NormFloat64())
	case dyn.KindString:
		return dyn.StringValue("clone")
	case dyn.KindSequence:
		n := r.Intn(3)
		vals := make([]dyn.Value, 0, n)
		for i := 0; i < n; i++ {
			vals = append(vals, dyn.Zero(t.Elem()))
		}
		return dyn.MustSequenceValue(t.Elem(), vals...)
	case dyn.KindStruct:
		fields := t.Fields()
		vals := make([]dyn.Value, len(fields))
		for i, f := range fields {
			vals[i] = dyn.Zero(f.Type)
		}
		return dyn.MustStructValue(t, vals...)
	default:
		return dyn.VoidValue()
	}
}

// Property: EncodeValue then DecodeValue is the identity for every
// CDR-encodable value, in both byte orders, even when the stream starts at
// an awkward alignment.
func TestValueRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(vs []reflect.Value, r *rand.Rand) {
			vs[0] = reflect.ValueOf(randomCDRValue(r, 3))
			vs[1] = reflect.ValueOf(r.Intn(2) == 0)
			vs[2] = reflect.ValueOf(r.Intn(4)) // leading junk octets
		},
	}
	f := func(v dyn.Value, le bool, lead int) bool {
		order := BigEndian
		if le {
			order = LittleEndian
		}
		e := NewEncoder(order)
		for i := 0; i < lead; i++ {
			e.WriteOctet(0xEE)
		}
		if err := EncodeValue(e, v); err != nil {
			return false
		}
		d := NewDecoder(e.Bytes(), order)
		if _, err := d.ReadOctets(lead); err != nil {
			return false
		}
		got, err := DecodeValue(d, v.Type())
		if err != nil {
			return false
		}
		return got.Equal(v) && d.Remaining() == 0
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
