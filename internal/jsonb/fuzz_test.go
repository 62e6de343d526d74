package jsonb

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"livedev/internal/dyn"
)

// FuzzDecodeValue and FuzzParseCall are differential against the oracle
// (oracle_test.go): the scanner must never panic, must accept exactly what
// the oracle accepts, must build an equal value when it does, and its
// re-encoding of that value must decode back to it under both decoders.
// checkDecode and checkParseCall are the same assertions the table tests
// make, and those tables seed the corpus.

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

// FuzzParseDoc is differential against the parent's document reader
// (oracle_test.go) through checkParseDoc: the reader never panics, agrees
// with the oracle on accept/reject and on the result but for its refusals
// and for documents that repeat a member, and what it accepts regenerates to
// a fixed point. The seeds are whole documents of a few KB; CI caps
// minimization as for the WSDL target.
func FuzzParseDoc(f *testing.F) {
	for _, data := range goldenDocs(f) {
		f.Add(data)
	}
	bench, err := GenerateDoc(benchDesc(8), benchEndpoint)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(bench))
	rng := rand.New(rand.NewPCG(26, 1))
	for i := 0; i < 8; i++ {
		desc, endpoint, mux, _ := randomDoc(rng)
		text, err := GenerateDocAs(DocFormat, desc, endpoint, mux)
		if err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(text))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		format := DocFormat
		if bytes.Contains(data, []byte(h2bDocFormat)) {
			format = h2bDocFormat
		}
		checkParseDoc(t, data, format)
	})
}
