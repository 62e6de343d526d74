package repl

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"livedev/internal/ifsvr"
)

// tailSeedCorpus builds representative tail streams: every frame kind —
// a commit batch spanning several paths, a bootstrap of a whole store —
// concatenations, a truncated tail, a bit-flipped record, and the v2
// handshake body read as if it were the stream.
func tailSeedCorpus() [][]byte {
	doc := ifsvr.Document{Content: "<x/>", ContentType: "text/xml", Version: 3, DescriptorVersion: 2, Epoch: 9}
	ev := func(path string) ifsvr.StoreEvent {
		return ifsvr.StoreEvent{Path: path, Doc: doc, Payload: ifsvr.EventPayload(path, doc)}
	}
	commit := ifsvr.EncodeCommitFrame(7, []ifsvr.StoreEvent{ev("/wsdl/Calc.wsdl"), ev("/idl/Calc.idl"), ev("/jsonif/Calc.json")})
	remove := ifsvr.AppendRemoveFrame(nil, 8, "/wsdl/Calc.wsdl", 3)
	boot := encodeBootstrapFrame(12, 42, 9, []ifsvr.StoreEvent{ev("/wsdl/Calc.wsdl"), ev("/idl/Calc.idl")}, map[string]uint64{"/gone": 5})
	hb := encodeHeartbeatFrame(12)
	hello, _ := json.Marshal(Hello{Schema: Schema, Generation: 42, Epoch: 9, LSN: 12, Floor: 4})

	stream := append(append(append(append([]byte(nil), commit...), remove...), boot...), hb...)
	truncated := append([]byte(nil), stream[:len(stream)-5]...)
	flipped := append([]byte(nil), stream...)
	flipped[len(commit)+10] ^= 0x40

	return [][]byte{
		commit, remove, boot, hb, stream, truncated, flipped, hello,
		{}, {1, 0, 0, 0},
		append([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0}, bytes.Repeat([]byte{'a'}, 32)...),
	}
}

// FuzzWALTailDecode drives the shipping frame decoder with arbitrary
// streams: it must never panic, must consume only CRC-valid frames, and
// every accepted frame must re-encode to exactly the bytes it was
// decoded from (so nothing corrupt can masquerade as a record).
func FuzzWALTailDecode(f *testing.F) {
	for _, seed := range tailSeedCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := newFrameReader(bytes.NewReader(data))
		var reframed []byte
		for i := 0; i < 10000; i++ {
			kind, payload, err := fr.next()
			if err != nil {
				if err != errCorruptFrame && err != io.EOF && err != io.ErrUnexpectedEOF {
					t.Fatalf("unexpected decode error: %v", err)
				}
				break
			}
			reframed = ifsvr.AppendFrame(reframed, kind, payload)
		}
		if int64(len(reframed)) != fr.n {
			t.Fatalf("consumed %d bytes but re-encoded %d", fr.n, len(reframed))
		}
		if !bytes.Equal(reframed, data[:fr.n]) {
			t.Fatalf("accepted frames do not round-trip:\n in  %x\n out %x", data[:fr.n], reframed)
		}
	})
}

// TestFrameReaderSeeds runs the fuzz property over the seed corpus in
// ordinary test runs (the fuzz target itself only runs under -fuzz).
func TestFrameReaderSeeds(t *testing.T) {
	for i, seed := range tailSeedCorpus() {
		fr := newFrameReader(bytes.NewReader(seed))
		var reframed []byte
		for {
			kind, payload, err := fr.next()
			if err != nil {
				break
			}
			reframed = ifsvr.AppendFrame(reframed, kind, payload)
		}
		if !bytes.Equal(reframed, seed[:fr.n]) {
			t.Fatalf("seed %d: accepted frames do not round-trip", i)
		}
	}
}
