// Package soap implements the SOAP 1.1 subset Web Services built on Apache
// Axis used in 2004: RPC/encoded envelopes over HTTP POST, faults with the
// paper's exact fault strings ("Server not initialized", "Malformed SOAP
// Request", "Non existent Method"), and an XML encoding of the dyn value
// system (xsd primitive types, structs as element children, sequences as
// <item> lists). Decoding is signature-driven: the expected dyn.Type comes
// from the WSDL-described interface, so xsi:type attributes are emitted for
// interoperability but not trusted on input.
//
// # Pooling and buffer-ownership invariants
//
// No tree is built in either direction. Envelopes are appended into pooled
// byte buffers around a skeleton (the constant text around the method
// element) cached per (service namespace, method): BuildRequest,
// BuildResponse and BuildFault return an independent string, so their
// callers never observe pooled storage; AppendResponse and AppendFault
// append to the buffer their caller hands them, which the server's call
// handler keeps pooled and writes from.
//
// Reading goes the other way round: nothing is copied until a value is
// decoded. ParseRequest and ParseResponse validate the whole document in
// one pass and hand out Element handles that alias the bytes they were
// given — the Request.Params and Response.Return of a body read into a
// pooled buffer point into that buffer. DecodeValue copies as it decodes:
// the dyn values it returns own their bytes, as do the Method and Fault
// strings. So the order is read, parse, decode every element you need,
// and only then recycle the buffer; a handle used after its buffer went
// back to the pool reads another call's bytes.
//
// Everything is read by the one lexer but one shape of input: the items of
// a sequence whose item type is a scalar, or a struct of scalars, as this
// package's encoder writes them. For such a sequence both directions build,
// once and with the encoder's own tag writer, the item's skeleton: its
// start tag, each member's start and end tags, its end tag. The encoder
// writes each item as those bytes with its values' character data between
// them (an empty value self-closes its element). The decoder reads each
// item by comparing the input with those bytes, taking the character data
// between them as it stands when it holds no reference and converts as the
// lexer's would; any difference (white space, a prefix, another attribute,
// reordered or missing members, a self-closed element, a reference, CDATA,
// a comment, a value the conversion refuses) sends the position back to the
// item's first byte and the lexer reads the item, so what is accepted and
// every error stay the lexer's. A skeleton is used only when the item and
// member names are ASCII letters, digits, '_', '-' and '.': the lexer reads
// those back unchanged and trims nothing off their end tags, while other
// names that dyn allows (with a ':' or a trailing non-ASCII space) it
// matches by local name or refuses.
//
// Documents that are not envelopes (WSDL) are read through Scanner, the
// lexer's exported face, and written with AppendEscaped: the names and
// attribute values a Scanner hands out alias its input the same way.
package soap

import (
	"sync"
	"unicode/utf8"
)

// renderPool recycles envelope render buffers.
var renderPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// maxPooledRender bounds the buffer capacity the render pool retains.
const maxPooledRender = 1 << 20

func getRenderBuf() *[]byte { return renderPool.Get().(*[]byte) }

func putRenderBuf(bp *[]byte, buf []byte) {
	if cap(buf) <= maxPooledRender {
		*bp = buf[:0]
		renderPool.Put(bp)
	}
}

// asciiEscape maps each ASCII byte to its escaped form, "" for the bytes
// that stand for themselves: xml.EscapeText's table, with the control
// characters XML cannot carry replaced by U+FFFD.
var asciiEscape = func() (t [utf8.RuneSelf]string) {
	for c := 0; c < 0x20; c++ {
		t[c] = "\uFFFD"
	}
	t['"'], t['\''], t['&'], t['<'], t['>'] = "&#34;", "&#39;", "&amp;", "&lt;", "&gt;"
	t['\t'], t['\n'], t['\r'] = "&#x9;", "&#xA;", "&#xD;"
	return t
}()

// AppendEscaped appends s with XML escaping, mirroring xml.EscapeText's
// behaviour (same escape table, invalid runes replaced with U+FFFD) without
// requiring an io.Writer or a byte-slice conversion of s. ASCII, which is
// nearly all of every envelope, takes one table load per byte.
func AppendEscaped(buf []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		esc, width := "", 1
		if c := s[i]; c < utf8.RuneSelf {
			esc = asciiEscape[c]
		} else {
			var r rune
			r, width = utf8.DecodeRuneInString(s[i:])
			if !isInCharacterRange(r) || (r == utf8.RuneError && width == 1) {
				esc = "\uFFFD"
			}
		}
		if esc != "" {
			buf = append(buf, s[last:i]...)
			buf = append(buf, esc...)
			last = i + width
		}
		i += width
	}
	return append(buf, s[last:]...)
}
