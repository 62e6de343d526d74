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
// The call path builds no tree in either direction. Envelopes are appended
// into pooled byte buffers around a skeleton (the constant text around the
// method element) cached per (service namespace, method): BuildRequest,
// BuildResponse, BuildFault and Render return an independent string, so
// their callers never observe pooled storage; WriteResponse and WriteFault
// send straight from the buffer and recycle it once the bytes are on the
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
// ParseXML is for documents: the Node tree it returns owns all its strings
// and nothing retains the input. Nodes it produces may carry a nil
// Attrs map when the element had no attributes; reading a nil map is safe
// (Attr handles it), but writers must use SetAttr or NewNode-created nodes.
package soap

import (
	"bytes"
	"sync"
	"unicode/utf8"
)

// Node is a generic XML element: dynamic documents (SOAP bodies whose shape
// depends on live method signatures) are built and inspected as Node trees.
type Node struct {
	// Name is the local element name (namespace prefixes are stripped on
	// parse; SOAP 1.1 RPC dispatch is by local name + declared namespace).
	Name string
	// Attrs holds attributes as local-name → value. May be nil on parsed
	// elements without attributes.
	Attrs map[string]string
	// Children are child elements, in document order.
	Children []*Node
	// Text is the concatenated character data directly under this element.
	Text string
}

// NewNode returns an element with the given local name.
func NewNode(name string) *Node {
	return &Node{Name: name, Attrs: make(map[string]string)}
}

// Append adds a child element and returns it for chaining.
func (n *Node) Append(child *Node) *Node {
	n.Children = append(n.Children, child)
	return child
}

// Child returns the first child with the given local name.
func (n *Node) Child(name string) (*Node, bool) {
	for _, c := range n.Children {
		if c.Name == name {
			return c, true
		}
	}
	return nil, false
}

// Attr returns the attribute value for a local attribute name.
func (n *Node) Attr(name string) string { return n.Attrs[name] }

// SetAttr sets an attribute, allocating the map if needed (parser-created
// nodes start with a nil map).
func (n *Node) SetAttr(name, value string) {
	if n.Attrs == nil {
		n.Attrs = make(map[string]string, 4)
	}
	n.Attrs[name] = value
}

// ParseXML parses a document into a Node tree, rooted at the single
// top-level element: the inverse of Render, for documents. The call path
// reads envelopes without a tree, see ParseRequest. The tree copies what it
// keeps: the input buffer may be reused as soon as ParseXML returns.
func ParseXML(data []byte) (*Node, error) {
	lx := lexer{data: data}
	var root *Node
	var stack []*Node // the open elements, parallel to lx.open
	for {
		tok, err := lx.next()
		if err != nil {
			return nil, err
		}
		switch tok {
		case tokEOF:
			return root, nil
		case tokStart:
			n := &Node{Name: string(localName(lx.name))}
			a := lx.attrs
			for p := skipSpace(a, 0); p < len(a); {
				name, raw, after, _ := scanAttr(a, p) // the lexer validated it
				val, _ := decodeEntities(raw)
				n.SetAttr(string(localName(name)), val)
				p = skipSpace(a, after)
			}
			if len(stack) == 0 {
				root = n
			} else {
				stack[len(stack)-1].Append(n)
			}
			if !lx.selfClosed {
				stack = append(stack, n)
			}
		case tokEnd:
			stack = stack[:len(stack)-1]
		case tokText:
			s, _ := decodeEntities(lx.text) // the lexer validated it
			stack[len(stack)-1].appendText(s)
		case tokCDATA:
			stack[len(stack)-1].appendText(string(lx.text))
		}
	}
}

// appendText appends literal character data to the element.
func (n *Node) appendText(s string) {
	if n.Text == "" {
		n.Text = s
	} else {
		n.Text += s
	}
}

// decodeEntities resolves the predefined and numeric character references.
func decodeEntities(raw []byte) (string, error) {
	if bytes.IndexByte(raw, '&') < 0 {
		return string(raw), nil
	}
	b, err := appendUnescaped(nil, raw)
	return string(b), err
}

// ---- Rendering ----

// renderPool recycles envelope/document render buffers.
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

// Render serializes the tree. Attributes are emitted in sorted order for
// deterministic output; character data is escaped. The returned string is
// independent of any internal buffer.
func (n *Node) Render() string {
	bp := getRenderBuf()
	buf := n.appendXML((*bp)[:0])
	s := string(buf)
	putRenderBuf(bp, buf)
	return s
}

// appendXML renders the element into buf and returns the extended slice.
func (n *Node) appendXML(buf []byte) []byte {
	buf = append(buf, '<')
	buf = append(buf, n.Name...)
	switch len(n.Attrs) {
	case 0:
	case 1:
		for k, v := range n.Attrs {
			buf = appendAttr(buf, k, v)
		}
	default:
		keys := make([]string, 0, len(n.Attrs))
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		// insertion sort; attribute counts are tiny
		for i := 1; i < len(keys); i++ {
			for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
			}
		}
		for _, k := range keys {
			buf = appendAttr(buf, k, n.Attrs[k])
		}
	}
	if len(n.Children) == 0 && n.Text == "" {
		return append(buf, '/', '>')
	}
	buf = append(buf, '>')
	if n.Text != "" {
		buf = appendEscaped(buf, n.Text)
	}
	for _, c := range n.Children {
		buf = c.appendXML(buf)
	}
	buf = append(buf, '<', '/')
	buf = append(buf, n.Name...)
	return append(buf, '>')
}

func appendAttr(buf []byte, k, v string) []byte {
	buf = append(buf, ' ')
	buf = append(buf, k...)
	buf = append(buf, '=', '"')
	buf = appendEscaped(buf, v)
	return append(buf, '"')
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

// appendEscaped appends s with XML escaping, mirroring xml.EscapeText's
// behaviour (same escape table, invalid runes replaced with U+FFFD) without
// requiring an io.Writer or a byte-slice conversion of s. ASCII, which is
// nearly all of every envelope, takes one table load per byte.
func appendEscaped(buf []byte, s string) []byte {
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
