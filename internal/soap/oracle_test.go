package soap

// The differential oracle: the tree codec this package used on the call
// path until the typed scanner replaced it, kept verbatim (names prefixed
// with "oracle", Adopt* constructors swapped for their copying twins) so the
// tests can demand that the lexer, the envelope walk and DecodeValue accept
// exactly what it accepts and produce the values it produces, and that
// appendValue writes the bytes it writes. It shares nothing with the code
// under test but the Node type and Render.

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"livedev/internal/dyn"
)

// ---- The parent's XML parser ----

type oracleParser struct {
	data []byte
	pos  int
}

// oracleParseXML parses a document into a Node tree, rooted at the single
// top-level element. The tree copies what it keeps: the input buffer may be
// reused as soon as ParseXML returns.
func oracleParseXML(data []byte) (*Node, error) {
	p := oracleParser{data: data}
	var root *Node
	var stack []*Node
	var rawNames [][]byte // raw (prefixed) tag names for match checking
	for {
		rest := p.data[p.pos:]
		i := bytes.IndexByte(rest, '<')
		if i < 0 {
			// Trailing character data. Inside an element it belongs to the
			// element, but then the element is unclosed and the final stack
			// check reports it; outside the root it is ignored, matching
			// the tolerant behaviour of the previous parser.
			break
		}
		if i > 0 {
			if len(stack) > 0 {
				if err := oracleAddText(stack[len(stack)-1], rest[:i]); err != nil {
					return nil, err
				}
			}
			p.pos += i
		}
		// p.data[p.pos] == '<'
		switch {
		case p.lookingAt("</"):
			name, err := p.readEndTag()
			if err != nil {
				return nil, err
			}
			if len(stack) == 0 {
				return nil, fmt.Errorf("%w: unbalanced end element", ErrMalformedXML)
			}
			if !bytes.Equal(name, rawNames[len(rawNames)-1]) {
				return nil, fmt.Errorf("%w: element <%s> closed by </%s>", ErrMalformedXML, rawNames[len(rawNames)-1], name)
			}
			stack = stack[:len(stack)-1]
			rawNames = rawNames[:len(rawNames)-1]
		case p.lookingAt("<!--"):
			if err := p.skipPast("-->"); err != nil {
				return nil, err
			}
		case p.lookingAt("<![CDATA["):
			raw, err := p.readCDATA()
			if err != nil {
				return nil, err
			}
			if len(stack) > 0 {
				oracleAppendRawText(stack[len(stack)-1], raw)
			}
		case p.lookingAt("<!"):
			if err := p.skipPast(">"); err != nil { // DOCTYPE etc.
				return nil, err
			}
		case p.lookingAt("<?"):
			if err := p.skipPast("?>"); err != nil { // prolog, PIs
				return nil, err
			}
		default:
			n, rawName, selfClosed, err := p.readStartTag()
			if err != nil {
				return nil, err
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("%w: multiple root elements", ErrMalformedXML)
				}
				root = n
			} else {
				stack[len(stack)-1].Append(n)
			}
			if !selfClosed {
				stack = append(stack, n)
				rawNames = append(rawNames, rawName)
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("%w: no root element", ErrMalformedXML)
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("%w: unclosed elements", ErrMalformedXML)
	}
	return root, nil
}

func (p *oracleParser) lookingAt(s string) bool {
	return len(p.data)-p.pos >= len(s) && string(p.data[p.pos:p.pos+len(s)]) == s
}

func (p *oracleParser) skipPast(close string) error {
	i := bytes.Index(p.data[p.pos:], []byte(close))
	if i < 0 {
		return fmt.Errorf("%w: unterminated markup", ErrMalformedXML)
	}
	p.pos += i + len(close)
	return nil
}

func (p *oracleParser) readCDATA() ([]byte, error) {
	start := p.pos + len("<![CDATA[")
	i := bytes.Index(p.data[start:], []byte("]]>"))
	if i < 0 {
		return nil, fmt.Errorf("%w: unterminated CDATA", ErrMalformedXML)
	}
	raw := p.data[start : start+i]
	p.pos = start + i + len("]]>")
	return raw, nil
}

func (p *oracleParser) readEndTag() ([]byte, error) {
	start := p.pos + 2
	i := bytes.IndexByte(p.data[start:], '>')
	if i < 0 {
		return nil, fmt.Errorf("%w: unterminated end tag", ErrMalformedXML)
	}
	name := bytes.TrimSpace(p.data[start : start+i])
	if len(name) == 0 {
		return nil, fmt.Errorf("%w: empty end tag", ErrMalformedXML)
	}
	p.pos = start + i + 1
	return name, nil
}

func oracleIsNameByte(c byte) bool {
	return c != ' ' && c != '\t' && c != '\n' && c != '\r' && c != '>' && c != '/' && c != '=' && c != '"' && c != '\''
}

func (p *oracleParser) skipSpace() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// readStartTag parses "<name attr=...>" or "<name .../>" with p.pos at '<'.
func (p *oracleParser) readStartTag() (*Node, []byte, bool, error) {
	p.pos++ // consume '<'
	nameStart := p.pos
	for p.pos < len(p.data) && oracleIsNameByte(p.data[p.pos]) {
		p.pos++
	}
	rawName := p.data[nameStart:p.pos]
	if len(rawName) == 0 {
		return nil, nil, false, fmt.Errorf("%w: empty element name", ErrMalformedXML)
	}
	n := &Node{Name: string(oracleLocalName(rawName))}
	for {
		p.skipSpace()
		if p.pos >= len(p.data) {
			return nil, nil, false, fmt.Errorf("%w: unterminated start tag", ErrMalformedXML)
		}
		switch p.data[p.pos] {
		case '>':
			p.pos++
			return n, rawName, false, nil
		case '/':
			if p.pos+1 >= len(p.data) || p.data[p.pos+1] != '>' {
				return nil, nil, false, fmt.Errorf("%w: stray '/' in start tag", ErrMalformedXML)
			}
			p.pos += 2
			return n, rawName, true, nil
		}
		// Attribute.
		attrStart := p.pos
		for p.pos < len(p.data) && oracleIsNameByte(p.data[p.pos]) {
			p.pos++
		}
		attrName := p.data[attrStart:p.pos]
		if len(attrName) == 0 {
			return nil, nil, false, fmt.Errorf("%w: malformed attribute", ErrMalformedXML)
		}
		p.skipSpace()
		if p.pos >= len(p.data) || p.data[p.pos] != '=' {
			return nil, nil, false, fmt.Errorf("%w: attribute %s missing value", ErrMalformedXML, attrName)
		}
		p.pos++
		p.skipSpace()
		if p.pos >= len(p.data) || (p.data[p.pos] != '"' && p.data[p.pos] != '\'') {
			return nil, nil, false, fmt.Errorf("%w: attribute %s missing quoted value", ErrMalformedXML, attrName)
		}
		quote := p.data[p.pos]
		p.pos++
		valStart := p.pos
		i := bytes.IndexByte(p.data[p.pos:], quote)
		if i < 0 {
			return nil, nil, false, fmt.Errorf("%w: unterminated attribute value", ErrMalformedXML)
		}
		rawVal := p.data[valStart : valStart+i]
		p.pos = valStart + i + 1
		val, err := oracleDecodeEntities(rawVal)
		if err != nil {
			return nil, nil, false, err
		}
		n.SetAttr(string(oracleLocalName(attrName)), val)
	}
}

// localName strips any namespace prefix ("m:echo" → "echo").
func oracleLocalName(raw []byte) []byte {
	if i := bytes.LastIndexByte(raw, ':'); i >= 0 {
		return raw[i+1:]
	}
	return raw
}

// addText appends entity-decoded character data to the element.
func oracleAddText(n *Node, raw []byte) error {
	s, err := oracleDecodeEntities(raw)
	if err != nil {
		return err
	}
	if n.Text == "" {
		n.Text = s
	} else {
		n.Text += s
	}
	return nil
}

// appendRawText appends already-literal text (CDATA content).
func oracleAppendRawText(n *Node, raw []byte) {
	if len(raw) == 0 {
		return
	}
	if n.Text == "" {
		n.Text = string(raw)
	} else {
		n.Text += string(raw)
	}
}

// oracleDecodeEntities resolves the predefined and numeric character references.
func oracleDecodeEntities(raw []byte) (string, error) {
	amp := bytes.IndexByte(raw, '&')
	if amp < 0 {
		return string(raw), nil
	}
	var b []byte
	b = append(b, raw[:amp]...)
	for i := amp; i < len(raw); {
		c := raw[i]
		if c != '&' {
			b = append(b, c)
			i++
			continue
		}
		semi := bytes.IndexByte(raw[i:], ';')
		if semi < 0 {
			return "", fmt.Errorf("%w: unterminated entity", ErrMalformedXML)
		}
		ent := string(raw[i+1 : i+semi])
		switch ent {
		case "amp":
			b = append(b, '&')
		case "lt":
			b = append(b, '<')
		case "gt":
			b = append(b, '>')
		case "quot":
			b = append(b, '"')
		case "apos":
			b = append(b, '\'')
		default:
			if len(ent) > 1 && ent[0] == '#' {
				r, err := oracleParseCharRef(ent[1:])
				if err != nil {
					return "", err
				}
				b = utf8.AppendRune(b, r)
			} else {
				return "", fmt.Errorf("%w: unknown entity &%s;", ErrMalformedXML, ent)
			}
		}
		i += semi + 1
	}
	return string(b), nil
}

func oracleParseCharRef(s string) (rune, error) {
	base := 10
	if len(s) > 0 && (s[0] == 'x' || s[0] == 'X') {
		base = 16
		s = s[1:]
	}
	var r rune
	if len(s) == 0 {
		return 0, fmt.Errorf("%w: empty character reference", ErrMalformedXML)
	}
	for i := 0; i < len(s); i++ {
		var d rune
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			d = rune(c - '0')
		case base == 16 && c >= 'a' && c <= 'f':
			d = rune(c-'a') + 10
		case base == 16 && c >= 'A' && c <= 'F':
			d = rune(c-'A') + 10
		default:
			return 0, fmt.Errorf("%w: bad character reference", ErrMalformedXML)
		}
		r = r*rune(base) + d
		if r > utf8.MaxRune {
			return 0, fmt.Errorf("%w: character reference out of range", ErrMalformedXML)
		}
	}
	// Reject references outside the XML Char production (NUL, most control
	// characters, surrogates), as encoding/xml does — accepting them would
	// smuggle values that cannot round-trip through Render.
	if !oracleInCharacterRange(r) {
		return 0, fmt.Errorf("%w: character reference &#%d; outside XML character range", ErrMalformedXML, r)
	}
	return r, nil
}

// oracleInCharacterRange reports whether r is in the XML Char production, per
// the same rule encoding/xml applies.
func oracleInCharacterRange(r rune) bool {
	return r == 0x09 ||
		r == 0x0A ||
		r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// ---- The parent's tree value codec ----

// oracleEncodeValue builds the element <name> carrying v.
func oracleEncodeValue(name string, v dyn.Value) (*Node, error) {
	n := NewNode(name)
	t := v.Type()
	if t.Kind() != dyn.KindVoid {
		n.Attrs["xsi:type"] = xsdType(t)
	}
	switch t.Kind() {
	case dyn.KindVoid:
		// empty element
	case dyn.KindBoolean:
		n.Text = strconv.FormatBool(v.Bool())
	case dyn.KindChar:
		n.Text = string(v.Char())
	case dyn.KindInt32:
		n.Text = strconv.FormatInt(int64(v.Int32()), 10)
	case dyn.KindInt64:
		n.Text = strconv.FormatInt(v.Int64(), 10)
	case dyn.KindFloat32:
		n.Text = oracleFormatXSDFloat(float64(v.Float32()), 32)
	case dyn.KindFloat64:
		n.Text = oracleFormatXSDFloat(v.Float64(), 64)
	case dyn.KindString:
		n.Text = v.Str()
	case dyn.KindSequence:
		for i := 0; i < v.Len(); i++ {
			item, err := oracleEncodeValue("item", v.Index(i))
			if err != nil {
				return nil, err
			}
			n.Append(item)
		}
	case dyn.KindStruct:
		for i := 0; i < v.Len(); i++ {
			f := t.Field(i)
			fn, err := oracleEncodeValue(f.Name, v.Index(i))
			if err != nil {
				return nil, fmt.Errorf("struct %s field %s: %w", t.Name(), f.Name, err)
			}
			n.Append(fn)
		}
	default:
		return nil, fmt.Errorf("soap: cannot encode kind %s", t.Kind())
	}
	return n, nil
}

// oracleDecodeValue reads a value of the expected type from an element produced
// by EncodeValue (or an interoperable peer). The expected type comes from
// the interface signature, per SOAP RPC/encoded practice.
func oracleDecodeValue(n *Node, t *dyn.Type) (dyn.Value, error) {
	switch t.Kind() {
	case dyn.KindVoid:
		return dyn.VoidValue(), nil
	case dyn.KindBoolean:
		switch strings.TrimSpace(n.Text) {
		case "true", "1":
			return dyn.BoolValue(true), nil
		case "false", "0":
			return dyn.BoolValue(false), nil
		default:
			return dyn.Value{}, fmt.Errorf("soap: invalid boolean %q", n.Text)
		}
	case dyn.KindChar:
		runes := []rune(n.Text)
		if len(runes) != 1 {
			return dyn.Value{}, fmt.Errorf("soap: char element must hold exactly one character, got %q", n.Text)
		}
		return dyn.CharValue(runes[0]), nil
	case dyn.KindInt32:
		i, err := strconv.ParseInt(strings.TrimSpace(n.Text), 10, 32)
		if err != nil {
			return dyn.Value{}, fmt.Errorf("soap: invalid int %q", n.Text)
		}
		return dyn.Int32Value(int32(i)), nil
	case dyn.KindInt64:
		i, err := strconv.ParseInt(strings.TrimSpace(n.Text), 10, 64)
		if err != nil {
			return dyn.Value{}, fmt.Errorf("soap: invalid long %q", n.Text)
		}
		return dyn.Int64Value(i), nil
	case dyn.KindFloat32:
		f, err := oracleParseXSDFloat(strings.TrimSpace(n.Text), 32)
		if err != nil {
			return dyn.Value{}, err
		}
		return dyn.Float32Value(float32(f)), nil
	case dyn.KindFloat64:
		f, err := oracleParseXSDFloat(strings.TrimSpace(n.Text), 64)
		if err != nil {
			return dyn.Value{}, err
		}
		return dyn.Float64Value(f), nil
	case dyn.KindString:
		return dyn.StringValue(n.Text), nil
	case dyn.KindSequence:
		elems := make([]dyn.Value, 0, len(n.Children))
		for i, c := range n.Children {
			ev, err := oracleDecodeValue(c, t.Elem())
			if err != nil {
				return dyn.Value{}, fmt.Errorf("soap: sequence element %d: %w", i, err)
			}
			elems = append(elems, ev)
		}
		return dyn.SequenceValue(t.Elem(), elems...)
	case dyn.KindStruct:
		vals := make([]dyn.Value, t.NumFields())
		for i := range vals {
			f := t.Field(i)
			c, ok := n.Child(f.Name)
			if !ok {
				return dyn.Value{}, fmt.Errorf("soap: struct %s missing field %s", t.Name(), f.Name)
			}
			fv, err := oracleDecodeValue(c, f.Type)
			if err != nil {
				return dyn.Value{}, fmt.Errorf("soap: struct %s field %s: %w", t.Name(), f.Name, err)
			}
			vals[i] = fv
		}
		return dyn.StructValue(t, vals...)
	default:
		return dyn.Value{}, fmt.Errorf("soap: cannot decode kind %s", t.Kind())
	}
}

// oracleFormatXSDFloat renders a float using XSD lexical forms for the special
// values (INF, -INF, NaN).
func oracleFormatXSDFloat(f float64, bits int) string {
	switch {
	case math.IsInf(f, 1):
		return "INF"
	case math.IsInf(f, -1):
		return "-INF"
	case math.IsNaN(f):
		return "NaN"
	default:
		return strconv.FormatFloat(f, 'g', -1, bits)
	}
}

func oracleParseXSDFloat(s string, bits int) (float64, error) {
	switch s {
	case "INF", "+INF":
		return math.Inf(1), nil
	case "-INF":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	f, err := strconv.ParseFloat(s, bits)
	if err != nil {
		return 0, fmt.Errorf("soap: invalid float %q", s)
	}
	return f, nil
}

// ---- The parent's envelope parsers ----

// oracleRequest is a parsed SOAP request: the method name and the raw parameter
// elements, which the call handler decodes against the live signature.
type oracleRequest struct {
	Method string
	Params []*Node
}

// oracleParseRequest extracts the RPC call from a request envelope.
func oracleParseRequest(data []byte) (oracleRequest, error) {
	root, err := oracleParseXML(data)
	if err != nil {
		return oracleRequest{}, err
	}
	if root.Name != "Envelope" {
		return oracleRequest{}, fmt.Errorf("%w: root element is %s, want Envelope", ErrMalformedXML, root.Name)
	}
	body, ok := root.Child("Body")
	if !ok {
		return oracleRequest{}, fmt.Errorf("%w: no Body element", ErrMalformedXML)
	}
	if len(body.Children) != 1 {
		return oracleRequest{}, fmt.Errorf("%w: Body must contain exactly one call element", ErrMalformedXML)
	}
	call := body.Children[0]
	return oracleRequest{Method: call.Name, Params: call.Children}, nil
}

// oracleResponse is a parsed SOAP response: either a result element or a fault.
type oracleResponse struct {
	// Method is the responding method name (without the "Response"
	// suffix); empty for faults.
	Method string
	// Return is the result element; nil for void results and faults.
	Return *Node
	// Fault is non-nil if the envelope carried a fault.
	Fault *Fault
}

// oracleParseResponse extracts the result or fault from a response envelope.
func oracleParseResponse(data []byte) (oracleResponse, error) {
	root, err := oracleParseXML(data)
	if err != nil {
		return oracleResponse{}, err
	}
	if root.Name != "Envelope" {
		return oracleResponse{}, fmt.Errorf("%w: root element is %s, want Envelope", ErrMalformedXML, root.Name)
	}
	body, ok := root.Child("Body")
	if !ok {
		return oracleResponse{}, fmt.Errorf("%w: no Body element", ErrMalformedXML)
	}
	if len(body.Children) != 1 {
		return oracleResponse{}, fmt.Errorf("%w: Body must contain exactly one element", ErrMalformedXML)
	}
	el := body.Children[0]
	if el.Name == "Fault" {
		f := &Fault{}
		if c, ok := el.Child("faultcode"); ok {
			f.Code = c.Text
		}
		if c, ok := el.Child("faultstring"); ok {
			f.String = c.Text
		}
		if c, ok := el.Child("detail"); ok {
			f.Detail = c.Text
		}
		return oracleResponse{Fault: f}, nil
	}
	const suffix = "Response"
	if len(el.Name) <= len(suffix) || el.Name[len(el.Name)-len(suffix):] != suffix {
		return oracleResponse{}, fmt.Errorf("%w: element %s is not a Response", ErrMalformedXML, el.Name)
	}
	resp := oracleResponse{Method: el.Name[:len(el.Name)-len(suffix)]}
	if rn, ok := el.Child("return"); ok {
		resp.Return = rn
	}
	return resp, nil
}
