package h2x

import (
	"context"
	"encoding/hex"
	"io"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// transcriptFrames reads the committed exchange back into frames: per
// stream, the client's frames (after the preface) and every HEADERS
// frame's header block. A payload the transcript gives by its SHA-256
// becomes 64 zero octets, the frame header's length cut to match.
func transcriptFrames(tb testing.TB) (client map[string][]byte, blocks [][]byte) {
	tb.Helper()
	data, err := os.ReadFile(exchangeFile)
	if err != nil {
		tb.Fatal(err)
	}
	client = map[string][]byte{}
	stream := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "# stream "); ok {
			stream, _, _ = strings.Cut(rest, ":")
			continue
		}
		f := strings.Fields(line)
		if len(f) < 3 || line[0] == '#' || f[1] == "preface" {
			continue
		}
		frame, err := hex.DecodeString(f[2])
		if err != nil {
			tb.Fatalf("%s: %v", line, err)
		}
		var payload []byte
		if len(f) > 3 && strings.HasPrefix(f[3], "sha256:") {
			payload = make([]byte, 64)
			frame[0], frame[1], frame[2] = 0, 0, 64
		} else if len(f) > 3 {
			if payload, err = hex.DecodeString(f[3]); err != nil {
				tb.Fatalf("%s: %v", line, err)
			}
		}
		if f[1] == "HEADERS" {
			blocks = append(blocks, payload)
		}
		if f[0] == "c>s" {
			client[stream] = append(append(client[stream], frame...), payload...)
		}
	}
	return client, blocks
}

// FuzzServerConn writes the preface and then arbitrary bytes into a
// serverConn over an in-memory pipe, with an echo handler behind it. The
// connection must not panic or hang, and it must return once the input
// ends. The seeds are the client's frames of the committed exchange: the
// connection setup alone and followed by each stream's frames.
func FuzzServerConn(f *testing.F) {
	client, _ := transcriptFrames(f)
	f.Add(client["0"])
	for id, frames := range client {
		if id != "0" {
			f.Add(append(append([]byte(nil), client["0"]...), frames...))
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		srv := NewServer(HandlerFunc(func(_ context.Context, req *Request) *Response {
			return &Response{Status: 200, Header: req.Header, Body: req.Body}
		}))
		peer, nc := net.Pipe()
		c := srv.newConn(nc)
		served := make(chan struct{})
		go func() {
			c.serve()
			close(served)
		}()
		go func() { _, _ = io.Copy(io.Discard, peer) }()
		_, _ = peer.Write(append([]byte(clientPreface), in...))
		_ = peer.Close()
		select {
		case <-served:
		case <-time.After(5 * time.Second):
			t.Fatal("the server connection did not return after its input ended")
		}
	})
}

// FuzzDecodeHeaderBlock decodes arbitrary header blocks. It must not
// panic, and every accepted block's fields, re-encoded as literals, must
// decode to the same list. The seeds are the committed exchange's header
// blocks and RFC 7541's Huffman-coded request (C.4.1).
func FuzzDecodeHeaderBlock(f *testing.F) {
	_, blocks := transcriptFrames(f)
	for _, b := range blocks {
		f.Add(b)
	}
	rfc, _ := hex.DecodeString("828684418cf1e3c2e5f23a6ba0ab90f4ff")
	f.Add(rfc)
	f.Fuzz(func(t *testing.T, block []byte) {
		fields, err := decodeHeaderBlock(block)
		if err != nil {
			return
		}
		var again []byte
		for _, fl := range fields {
			again = appendLiteral(again, 0, fl[0], fl[1])
		}
		back, err := decodeHeaderBlock(again)
		if err != nil {
			t.Fatalf("re-encoded %q: %v", fields, err)
		}
		if !reflect.DeepEqual(back, fields) {
			t.Fatalf("re-encoded %q decodes to %q", fields, back)
		}
	})
}
