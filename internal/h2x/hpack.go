// Package h2x is a purpose-built cleartext HTTP/2 engine for the h2b
// binding's multiplexed call fast path. The standard library's HTTP/2
// stack is a general server: every call crosses a frame-scheduling
// goroutine on the server and a write-coalescing mutex plus read-loop
// handoff on the client, which on the echo workload costs several times
// a GIOP round trip. This engine speaks genuine HTTP/2 on the wire —
// conformance-tested against the net/http h2c stack in both directions —
// but specializes for the call pattern the binding needs: small
// request/reply bodies, headers encoded without a dynamic HPACK table,
// responses written directly from the handler goroutine, and one
// long-lived TCP connection multiplexing concurrent calls as streams.
//
// A connection pays its fixed costs once, not per call. Its handler
// goroutines are workers that stay on between streams: the frame loop
// hands a stream to an idle one and starts another only when all are
// busy, up to maxIdleWorkers waiting, so a sequential caller's calls run
// on a stack that has already grown. Its HPACK decoder interns the header
// names and values that repeat from call to call in a small table.
//
// One connection core serves both roles. It holds the socket, the one
// locked frame writer, flow control in both directions and the frame
// loop, which answers SETTINGS and PING, applies WINDOW_UPDATE and reads
// header blocks; its send path writes a message's HEADERS and DATA, in
// one write when the body fits a frame and the windows allow it. The
// client (ClientConn) and the server connection embed it and keep what
// differs: what a stream's HEADERS, DATA and RST_STREAM mean, the
// pseudo-headers they encode (:method and :path against :status), and
// how a connection error ends the connection (the client fails its
// in-flight calls, the server sends GOAWAY).
//
// What is deliberately not implemented: server push (disabled via
// SETTINGS), priorities (frames are ignored, as RFC 9113 deprecates
// them), trailers, and padding emission (received padding is handled).
// HPACK encoding never uses the dynamic table or Huffman coding — both
// are optional for encoders — and both connection halves advertise
// SETTINGS_HEADER_TABLE_SIZE = 0, which forces the peer's encoder into
// the same stateless subset; the decoder still handles Huffman-coded
// strings and table-size updates, which peers may always send.
package h2x

import (
	"errors"
	"fmt"
)

// hpack static table, RFC 7541 Appendix A. Index 0 is unused (HPACK
// indices are 1-based).
var staticTable = [62][2]string{
	{},
	{":authority", ""},
	{":method", "GET"},
	{":method", "POST"},
	{":path", "/"},
	{":path", "/index.html"},
	{":scheme", "http"},
	{":scheme", "https"},
	{":status", "200"},
	{":status", "204"},
	{":status", "206"},
	{":status", "304"},
	{":status", "400"},
	{":status", "404"},
	{":status", "500"},
	{"accept-charset", ""},
	{"accept-encoding", "gzip, deflate"},
	{"accept-language", ""},
	{"accept-ranges", ""},
	{"accept", ""},
	{"access-control-allow-origin", ""},
	{"age", ""},
	{"allow", ""},
	{"authorization", ""},
	{"cache-control", ""},
	{"content-disposition", ""},
	{"content-encoding", ""},
	{"content-language", ""},
	{"content-length", ""},
	{"content-location", ""},
	{"content-range", ""},
	{"content-type", ""},
	{"cookie", ""},
	{"date", ""},
	{"etag", ""},
	{"expect", ""},
	{"expires", ""},
	{"from", ""},
	{"host", ""},
	{"if-match", ""},
	{"if-modified-since", ""},
	{"if-none-match", ""},
	{"if-range", ""},
	{"if-unmodified-since", ""},
	{"last-modified", ""},
	{"link", ""},
	{"location", ""},
	{"max-forwards", ""},
	{"proxy-authenticate", ""},
	{"proxy-authorization", ""},
	{"range", ""},
	{"referer", ""},
	{"refresh", ""},
	{"retry-after", ""},
	{"server", ""},
	{"set-cookie", ""},
	{"strict-transport-security", ""},
	{"transfer-encoding", ""},
	{"user-agent", ""},
	{"vary", ""},
	{"via", ""},
	{"www-authenticate", ""},
}

// appendVarint appends an HPACK integer with the given prefix bits and
// leading flag byte (RFC 7541 §5.1).
func appendVarint(b []byte, flags byte, prefixBits uint8, v uint64) []byte {
	max := uint64(1)<<prefixBits - 1
	if v < max {
		return append(b, flags|byte(v))
	}
	b = append(b, flags|byte(max))
	v -= max
	for v >= 128 {
		b = append(b, byte(v&0x7f)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// appendIndexed appends an indexed header field (static table hit).
func appendIndexed(b []byte, idx uint64) []byte {
	return appendVarint(b, 0x80, 7, idx)
}

// appendLiteral appends a literal header field without indexing, using a
// static-table name index when nameIdx > 0. Strings are written raw —
// Huffman coding is optional for encoders and skipping it keeps the
// encoder allocation-free and the peer's decode cheap.
func appendLiteral(b []byte, nameIdx uint64, name, value string) []byte {
	b = appendVarint(b, 0x00, 4, nameIdx)
	if nameIdx == 0 {
		b = appendVarint(b, 0x00, 7, uint64(len(name)))
		b = append(b, name...)
	}
	b = appendVarint(b, 0x00, 7, uint64(len(value)))
	return append(b, value...)
}

// huffman decoding: a flat binary tree built once from the RFC 7541
// code table. Node i's children are at transitions[i][bit]; leaves carry
// the decoded symbol. 8-bit-at-a-time tables would be faster, but the
// fast path never receives Huffman-coded strings (our own encoders do
// not emit them) — only stdlib peers in the interop paths do.
type huffNode struct {
	children [2]*huffNode
	sym      byte
	leaf     bool
}

var huffRoot = buildHuffTree()

func buildHuffTree() *huffNode {
	root := &huffNode{}
	for sym := 0; sym < 256; sym++ {
		code := huffmanCodes[sym]
		n := root
		for bit := int(huffmanCodeLen[sym]) - 1; bit >= 0; bit-- {
			b := (code >> uint(bit)) & 1
			if n.children[b] == nil {
				n.children[b] = &huffNode{}
			}
			n = n.children[b]
		}
		n.sym = byte(sym)
		n.leaf = true
	}
	return root
}

var errHuffman = errors.New("h2x: invalid huffman-coded string")

// huffmanDecode decodes an HPACK Huffman-coded string.
func huffmanDecode(in []byte) ([]byte, error) {
	out := make([]byte, 0, len(in)*8/5)
	n := huffRoot
	depth := 0      // bits consumed since the last complete symbol
	allOnes := true // whether those bits are all 1 (a valid EOS-prefix pad)
	for _, b := range in {
		for bit := 7; bit >= 0; bit-- {
			v := (b >> uint(bit)) & 1
			n = n.children[v]
			if n == nil {
				return nil, errHuffman
			}
			depth++
			if v == 0 {
				allOnes = false
			}
			if n.leaf {
				out = append(out, n.sym)
				n = huffRoot
				depth = 0
				allOnes = true
			}
		}
	}
	// Trailing bits must be a prefix of the EOS code (all ones), at most
	// 7 bits (RFC 7541 §5.2).
	if depth > 7 || !allOnes {
		return nil, errHuffman
	}
	return out, nil
}

// hpackDecoder decodes header blocks. Both halves of this engine
// advertise SETTINGS_HEADER_TABLE_SIZE = 0, so a conforming peer encoder
// cannot reference dynamic entries; incremental-indexing literals are
// still accepted (adding to a zero-size table evicts immediately, which
// is legal), as are table-size updates down to zero.
//
// A connection's decoder interns the strings it decodes: a call's header
// names and values (content-type, a binding's method and order fields,
// the path) repeat from call to call, and a repeat reuses one string
// instead of copying it again. Only the frame loop decodes, so the table
// needs no lock.
type hpackDecoder struct {
	buf      []byte
	interned map[string]string // made on first use
}

// The intern table's bounds: strings longer than maxInternedLen are not
// kept, and a table holding maxInterned strings starts over, so a peer
// whose values never repeat costs a cleared map, not a growing one.
const (
	maxInterned    = 64
	maxInternedLen = 128
)

// str returns b as a string, interned unless it is too long to keep.
func (d *hpackDecoder) str(b []byte) string {
	if len(b) > maxInternedLen {
		return string(b)
	}
	if s, ok := d.interned[string(b)]; ok {
		return s
	}
	if d.interned == nil {
		d.interned = make(map[string]string)
	} else if len(d.interned) >= maxInterned {
		clear(d.interned)
	}
	s := string(b)
	d.interned[s] = s
	return s
}

var errHPACK = errors.New("h2x: malformed header block")

func (d *hpackDecoder) readVarint(prefixBits uint8) (uint64, byte, error) {
	if len(d.buf) == 0 {
		return 0, 0, errHPACK
	}
	first := d.buf[0]
	d.buf = d.buf[1:]
	max := uint64(1)<<prefixBits - 1
	v := uint64(first) & max
	if v < max {
		return v, first, nil
	}
	for shift := uint(0); ; shift += 7 {
		if len(d.buf) == 0 || shift > 56 {
			return 0, 0, errHPACK
		}
		b := d.buf[0]
		d.buf = d.buf[1:]
		v += uint64(b&0x7f) << shift
		if b&0x80 == 0 {
			return v, first, nil
		}
	}
}

func (d *hpackDecoder) readString() (string, error) {
	n, first, err := d.readVarint(7)
	if err != nil {
		return "", err
	}
	if uint64(len(d.buf)) < n {
		return "", errHPACK
	}
	raw := d.buf[:n]
	d.buf = d.buf[n:]
	if first&0x80 != 0 {
		dec, err := huffmanDecode(raw)
		if err != nil {
			return "", err
		}
		return d.str(dec), nil
	}
	return d.str(raw), nil
}

// next returns the next decoded field, or done=true at end of block.
func (d *hpackDecoder) next() (name, value string, done bool, err error) {
	if len(d.buf) == 0 {
		return "", "", true, nil
	}
	b := d.buf[0]
	switch {
	case b&0x80 != 0: // indexed field
		idx, _, err := d.readVarint(7)
		if err != nil {
			return "", "", false, err
		}
		if idx == 0 || idx >= uint64(len(staticTable)) {
			return "", "", false, fmt.Errorf("%w: index %d outside the static table", errHPACK, idx)
		}
		e := staticTable[idx]
		return e[0], e[1], false, nil
	case b&0xe0 == 0x20: // dynamic table size update
		size, _, err := d.readVarint(5)
		if err != nil {
			return "", "", false, err
		}
		if size != 0 {
			return "", "", false, fmt.Errorf("%w: table size %d exceeds the advertised 0", errHPACK, size)
		}
		return d.next()
	default: // literal: with incremental indexing (0x40), without (0x00), never-indexed (0x10)
		prefix := uint8(4)
		if b&0x40 != 0 {
			prefix = 6
		}
		nameIdx, _, err := d.readVarint(prefix)
		if err != nil {
			return "", "", false, err
		}
		if nameIdx > 0 {
			if nameIdx >= uint64(len(staticTable)) {
				return "", "", false, fmt.Errorf("%w: name index %d outside the static table", errHPACK, nameIdx)
			}
			name = staticTable[nameIdx][0]
		} else if name, err = d.readString(); err != nil {
			return "", "", false, err
		}
		if value, err = d.readString(); err != nil {
			return "", "", false, err
		}
		return name, value, false, nil
	}
}

// decodeHeaderBlock decodes a complete header block into field pairs
// with a decoder of its own.
func decodeHeaderBlock(block []byte) ([][2]string, error) {
	var d hpackDecoder
	return d.decode(block)
}

// decode decodes a complete header block into field pairs. Room for eight
// is made at once: a call's pseudo-headers and a binding's few fields fit
// it.
func (d *hpackDecoder) decode(block []byte) ([][2]string, error) {
	d.buf = block
	out := make([][2]string, 0, 8)
	for {
		name, value, done, err := d.next()
		if err != nil {
			return nil, err
		}
		if done {
			return out, nil
		}
		out = append(out, [2]string{name, value})
	}
}
