package cdr

import (
	"encoding/binary"
	"testing"

	"livedev/internal/dyn"
)

// FuzzDecodeValue holds DecodeValue to the per-element oracle on arbitrary
// octets, against every shape of codecTypes in either byte order (see
// checkDecode for what is compared).
func FuzzDecodeValue(f *testing.F) {
	typeIndex := func(t *dyn.Type) uint8 {
		for i, ct := range codecTypes {
			if ct.Equal(t) {
				return uint8(i)
			}
		}
		f.Fatalf("%s is not in codecTypes", t)
		return 0
	}
	encode := func(v dyn.Value, order ByteOrder) []byte {
		e := NewEncoder(order)
		if err := EncodeValue(e, v); err != nil {
			f.Fatal(err)
		}
		return e.Bytes()
	}
	// The bulk shape, a sequence of sequences of structs, structs at three
	// depths, an empty sequence.
	bulk := itemSeq(8)
	grid := dyn.MustSequenceValue(bulk.Type(), itemSeq(2), itemSeq(0), itemSeq(3))
	nest := dyn.MustStructValue(nestType, bulk.Index(1), itemSeq(2), dyn.BoolValue(true), dyn.Float32Value(0.5))
	for _, v := range []dyn.Value{bulk, grid, nest, dyn.MustSequenceValue(nestType, nest, nest), itemSeq(0)} {
		f.Add(encode(v, BigEndian), typeIndex(v.Type()), false)
		f.Add(encode(v, LittleEndian), typeIndex(v.Type()), true)
	}
	// A truncated tail, and lengths that lie: by more than the octets left,
	// and by no more than that but more than Items fit in them.
	raw := encode(bulk, BigEndian)
	f.Add(raw[:len(raw)-5], typeIndex(bulk.Type()), false)
	for _, claim := range []uint32{0xFFFFFFF0, uint32(len(raw) - 4), uint32((len(raw) - 4) / minSize(itemType))} {
		lie := append([]byte(nil), raw...)
		binary.BigEndian.PutUint32(lie, claim)
		f.Add(lie, typeIndex(bulk.Type()), false)
	}
	// Structs of nothing but void: only the one-octet floor bounds the claim.
	f.Add([]byte{0, 0, 0, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, typeIndex(dyn.SequenceOf(voidsType)), false)

	f.Fuzz(func(t *testing.T, raw []byte, ti uint8, little bool) {
		order := BigEndian
		if little {
			order = LittleEndian
		}
		checkDecode(t, raw, codecTypes[int(ti)%len(codecTypes)], order)
	})
}
