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
// callers never observe pooled storage; WriteResponse and WriteFault send
// straight from the buffer and recycle it once the bytes are on the
// connection. Client.CallContext gives the transport a copy, because the
// transport may still be reading a request body after the reply arrived.
//
// Reading goes the other way round: nothing is copied until a value is
// decoded. ParseRequest and ParseResponse validate the whole document in
// one pass and hand out Element handles that alias the bytes they were
// given — the Request.Params and Response.Return of a body read into a
// GetBodyBuffer buffer point into that buffer. DecodeValue copies as it
// decodes: the dyn values it returns own their bytes, as do the Method and
// Fault strings. So the order is read, parse, decode every element you
// need, and only then PutBodyBuffer; a handle used after its buffer went
// back to the pool reads another call's bytes.
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
