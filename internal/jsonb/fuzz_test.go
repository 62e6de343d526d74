package jsonb

import (
	"testing"

	"livedev/internal/dyn"
)

// Both targets are differential against the oracle (oracle_test.go): the
// scanner must never panic, must accept exactly what the oracle accepts,
// must build an equal value when it does, and its re-encoding of that value
// must decode back to it under both decoders. checkDecode and checkParseCall
// are the same assertions the table tests make, and those tables seed the
// corpus.

func FuzzDecodeValue(f *testing.F) {
	typeIndex := func(t *dyn.Type) (uint8, bool) {
		for i, ct := range codecTypes {
			if ct.Equal(t) {
				return uint8(i), true
			}
		}
		return 0, false
	}
	for _, tc := range decodeCases {
		if i, ok := typeIndex(tc.typ); ok {
			f.Add([]byte(tc.raw), i)
		}
	}
	for _, v := range roundTripValues() {
		raw, err := EncodeValue(v)
		if err != nil {
			f.Fatal(err)
		}
		if i, ok := typeIndex(v.Type()); ok {
			f.Add([]byte(raw), i)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, ti uint8) {
		checkDecode(t, raw, codecTypes[int(ti)%len(codecTypes)])
	})
}

func FuzzParseCall(f *testing.F) {
	for _, tc := range callCases {
		f.Add([]byte(tc.body))
	}
	bulk, err := appendRequest(nil, "echo", []dyn.Value{bulkValue(4)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bulk)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkParseCall(t, body)
	})
}
