package soap

// The generic element tree this package built documents with until every
// writer appended and every reader walked the lexer. It is a test helper
// now: ParseXML is the lexer's tree-shaped consumer, which checkXML holds to
// oracleParseXML, and Render is what the envelope builders' bytes are
// compared with.

import "bytes"

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
// top-level element: the inverse of Render. The tree copies what it keeps.
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

// Render serializes the tree. Attributes are emitted in sorted order for
// deterministic output; character data is escaped.
func (n *Node) Render() string { return string(n.appendXML(nil)) }

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
		buf = AppendEscaped(buf, n.Text)
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
	buf = AppendEscaped(buf, v)
	return append(buf, '"')
}
