package soap

import (
	"bytes"
	"errors"
	"fmt"
	"unicode/utf8"
)

// ErrMalformedXML reports unparseable XML input.
var ErrMalformedXML = errors.New("soap: malformed XML")

// The lexer is the one XML tokenizer in this package. It is purpose-built
// instead of encoding/xml token streaming: SOAP envelopes are scanned on
// every request and reply, and the generic decoder costs dozens of
// allocations per document. It handles the XML subset SOAP 1.1 stacks
// exchange — elements, attributes (either quote), character data, the five
// predefined entities plus numeric references, CDATA, comments, processing
// instructions, and a prolog/DOCTYPE it skips — and it is where a document
// is validated: every consumer (the envelope walk of ParseCall,
// ParseRequest and ParseResponse, the typed scanner that decodes in it and
// behind DecodeValue, the exported Scanner the WSDL compiler walks) accepts
// exactly the documents next accepts,
// whether it reads a region or skips it. Tokens alias the input; nothing is
// copied or allocated except the stack of open element names once a document
// nests deeper than the caller's initial capacity.

type tokenKind uint8

const (
	tokEOF   tokenKind = iota // end of a well-formed document
	tokStart                  // start tag: name, attrs, selfClosed
	tokEnd                    // end tag, matched against its start tag
	tokText                   // character data inside an element: entities validated, not resolved
	tokCDATA                  // CDATA content inside an element: literal
)

type lexer struct {
	data []byte
	pos  int
	// open holds the raw (prefixed) names of the elements entered and not
	// yet left; an end tag must repeat the innermost one byte for byte.
	open   [][]byte
	rooted bool // the root element has started

	// The token next last returned.
	start      int    // offset of its first byte
	name       []byte // tokStart: raw tag name
	attrs      []byte // tokStart: the validated region between name and '>' or '/>'
	selfClosed bool   // tokStart: "<name/>", nothing was pushed on open
	text       []byte // tokText, tokCDATA
	refs       bool   // tokText: text holds a reference
}

func malformed(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrMalformedXML}, args...)...)
}

// next scans to the next token. Comments, processing instructions and
// DOCTYPE-style declarations are validated and dropped, and so is anything
// but elements outside the root: character data there is not even checked
// for entity syntax, as XML parsers that tolerate a trailing newline do.
func (lx *lexer) next() (tokenKind, error) {
	d := lx.data
	for {
		i := 0 // to the next '<'
		if lx.pos >= len(d) || d[lx.pos] != '<' {
			i = bytes.IndexByte(d[lx.pos:], '<')
		}
		if i < 0 {
			// Character data to the end of input: inside an element the
			// element is unclosed, outside the root it is ignored.
			lx.pos = len(d)
			switch {
			case len(lx.open) != 0:
				return tokEOF, malformed("unclosed elements")
			case !lx.rooted:
				return tokEOF, malformed("no root element")
			}
			return tokEOF, nil
		}
		if i > 0 {
			text := d[lx.pos : lx.pos+i]
			lx.start = lx.pos
			lx.pos += i
			if len(lx.open) > 0 {
				amp := bytes.IndexByte(text, '&')
				if lx.refs = amp >= 0; lx.refs {
					if err := checkEntities(text[amp:]); err != nil {
						return tokEOF, err
					}
				}
				lx.text = text
				return tokText, nil
			}
		}
		lx.start = lx.pos
		var c byte // the byte after '<'; 0 at the end of input fails as an empty start tag
		if lx.pos+1 < len(d) {
			c = d[lx.pos+1]
		}
		switch {
		case c == '/':
			return tokEnd, lx.endTag()
		case c == '?':
			if err := lx.skipPast("?>"); err != nil { // prolog, PIs
				return tokEOF, err
			}
		case c != '!':
			return tokStart, lx.startTag()
		case lx.lookingAt("<!--"):
			if err := lx.skipPast("-->"); err != nil {
				return tokEOF, err
			}
		case lx.lookingAt("<![CDATA["):
			body := lx.pos + len("<![CDATA[")
			n := bytes.Index(d[body:], []byte("]]>"))
			if n < 0 {
				return tokEOF, malformed("unterminated CDATA")
			}
			lx.pos = body + n + len("]]>")
			if len(lx.open) > 0 {
				lx.text = d[body : body+n]
				return tokCDATA, nil
			}
		default:
			if err := lx.skipPast(">"); err != nil { // DOCTYPE etc.
				return tokEOF, err
			}
		}
	}
}

func (lx *lexer) lookingAt(s string) bool {
	return len(lx.data)-lx.pos >= len(s) && string(lx.data[lx.pos:lx.pos+len(s)]) == s
}

func (lx *lexer) skipPast(close string) error {
	i := bytes.Index(lx.data[lx.pos:], []byte(close))
	if i < 0 {
		return malformed("unterminated markup")
	}
	lx.pos += i + len(close)
	return nil
}

// endTag scans "</name>" with lx.pos at '<' and leaves the innermost open
// element.
func (lx *lexer) endTag() error {
	from := lx.pos + 2
	top := len(lx.open) - 1
	// The innermost name then '>' is the end tag when bytes.TrimSpace would
	// leave the name whole: its first and last bytes are ASCII, not space.
	if top >= 0 {
		name := lx.open[top]
		end := from + len(name)
		if end < len(lx.data) && lx.data[end] == '>' && bytes.Equal(lx.data[from:end], name) &&
			trimKeeps(name[0]) && trimKeeps(name[len(name)-1]) {
			lx.open = lx.open[:top]
			lx.name = lx.data[from:end]
			lx.pos = end + 1
			return nil
		}
	}
	i := bytes.IndexByte(lx.data[from:], '>')
	if i < 0 {
		return malformed("unterminated end tag")
	}
	name := bytes.TrimSpace(lx.data[from : from+i])
	if len(name) == 0 {
		return malformed("empty end tag")
	}
	if top < 0 {
		return malformed("unbalanced end element")
	}
	if !bytes.Equal(name, lx.open[top]) {
		return malformed("element <%s> closed by </%s>", lx.open[top], name)
	}
	lx.open = lx.open[:top]
	lx.name = name
	lx.pos = from + i + 1
	return nil
}

// trimKeeps reports whether bytes.TrimSpace keeps c at either end of a
// slice, whatever surrounds it.
func trimKeeps(c byte) bool { return ' ' < c && c < utf8.RuneSelf }

// nameByte marks the bytes that may appear in a tag or attribute name:
// anything but white space and the tag punctuation.
var nameByte = func() (t [256]bool) {
	for i := range t {
		t[i] = true
	}
	for _, c := range " \t\n\r>/=\"'" {
		t[c] = false
	}
	return t
}()

// nameEnd returns the offset of the first non-name byte at or after p.
func nameEnd(d []byte, p int) int {
	for p < len(d) && nameByte[d[p]] {
		p++
	}
	return p
}

func skipSpace(d []byte, p int) int {
	for p < len(d) {
		switch d[p] {
		case ' ', '\t', '\n', '\r':
			p++
		default:
			return p
		}
	}
	return p
}

// startTag scans "<name attr=...>" or "<name .../>" with lx.pos at '<',
// validating every attribute, and enters the element unless it is
// self-closed.
func (lx *lexer) startTag() error {
	d := lx.data
	p := nameEnd(d, lx.pos+1)
	name := d[lx.pos+1 : p]
	if len(name) == 0 {
		return malformed("empty element name")
	}
	if len(lx.open) == 0 {
		if lx.rooted {
			return malformed("multiple root elements")
		}
		lx.rooted = true
	}
	attrs := p
	for {
		p = skipSpace(d, p)
		if p >= len(d) {
			return malformed("unterminated start tag")
		}
		switch d[p] {
		case '>':
			lx.name, lx.attrs, lx.selfClosed = name, d[attrs:p], false
			lx.open = append(lx.open, name)
			lx.pos = p + 1
			return nil
		case '/':
			if p+1 >= len(d) || d[p+1] != '>' {
				return malformed("stray '/' in start tag")
			}
			lx.name, lx.attrs, lx.selfClosed = name, d[attrs:p], true
			lx.pos = p + 2
			return nil
		}
		_, val, after, err := scanAttr(d, p)
		if err == nil {
			err = checkEntities(val)
		}
		if err != nil {
			return err
		}
		p = after
	}
}

// scanAttr scans one `name = "value"` (either quote) starting at the name's
// first byte and returns the raw value and the offset after its closing
// quote.
func scanAttr(d []byte, p int) (name, val []byte, after int, err error) {
	end := nameEnd(d, p)
	if name = d[p:end]; len(name) == 0 {
		return nil, nil, 0, malformed("malformed attribute")
	}
	p = skipSpace(d, end)
	if p >= len(d) || d[p] != '=' {
		return nil, nil, 0, malformed("attribute %s missing value", name)
	}
	p = skipSpace(d, p+1)
	if p >= len(d) || (d[p] != '"' && d[p] != '\'') {
		return nil, nil, 0, malformed("attribute %s missing quoted value", name)
	}
	n := bytes.IndexByte(d[p+1:], d[p])
	if n < 0 {
		return nil, nil, 0, malformed("unterminated attribute value")
	}
	return name, d[p+1 : p+1+n], p + n + 2, nil
}

// localName strips any namespace prefix ("m:echo" → "echo").
func localName(raw []byte) []byte {
	if i := bytes.LastIndexByte(raw, ':'); i >= 0 {
		return raw[i+1:]
	}
	return raw
}

// ---- Entity and character references ----

// scanEntity resolves the reference at the head of raw (raw[0] is '&') and
// returns the character it stands for and the reference's length.
func scanEntity(raw []byte) (rune, int, error) {
	semi := bytes.IndexByte(raw, ';')
	if semi < 0 {
		return 0, 0, malformed("unterminated entity")
	}
	ent := raw[1:semi]
	switch string(ent) {
	case "amp":
		return '&', semi + 1, nil
	case "lt":
		return '<', semi + 1, nil
	case "gt":
		return '>', semi + 1, nil
	case "quot":
		return '"', semi + 1, nil
	case "apos":
		return '\'', semi + 1, nil
	}
	if len(ent) > 1 && ent[0] == '#' {
		r, err := parseCharRef(ent[1:])
		return r, semi + 1, err
	}
	return 0, 0, malformed("unknown entity &%s;", ent)
}

// checkEntities validates every reference in raw without resolving any.
func checkEntities(raw []byte) error {
	for {
		amp := bytes.IndexByte(raw, '&')
		if amp < 0 {
			return nil
		}
		_, n, err := scanEntity(raw[amp:])
		if err != nil {
			return err
		}
		raw = raw[amp+n:]
	}
}

// appendUnescaped appends raw to dst with its references resolved.
func appendUnescaped(dst, raw []byte) ([]byte, error) {
	for {
		amp := bytes.IndexByte(raw, '&')
		if amp < 0 {
			return append(dst, raw...), nil
		}
		r, n, err := scanEntity(raw[amp:])
		if err != nil {
			return dst, err
		}
		dst = utf8.AppendRune(append(dst, raw[:amp]...), r)
		raw = raw[amp+n:]
	}
}

func parseCharRef(s []byte) (rune, error) {
	base := rune(10)
	if len(s) > 0 && (s[0] == 'x' || s[0] == 'X') {
		base = 16
		s = s[1:]
	}
	if len(s) == 0 {
		return 0, malformed("empty character reference")
	}
	var r rune
	for _, c := range s {
		var d rune
		switch {
		case c >= '0' && c <= '9':
			d = rune(c - '0')
		case base == 16 && c >= 'a' && c <= 'f':
			d = rune(c-'a') + 10
		case base == 16 && c >= 'A' && c <= 'F':
			d = rune(c-'A') + 10
		default:
			return 0, malformed("bad character reference")
		}
		r = r*base + d
		if r > utf8.MaxRune {
			return 0, malformed("character reference out of range")
		}
	}
	// Reject references outside the XML Char production (NUL, most control
	// characters, surrogates), as encoding/xml does — accepting them would
	// smuggle values that cannot round-trip through Render.
	if !isInCharacterRange(r) {
		return 0, malformed("character reference &#%d; outside XML character range", r)
	}
	return r, nil
}

// isInCharacterRange reports whether r is in the XML Char production, per
// the same rule encoding/xml applies.
func isInCharacterRange(r rune) bool {
	return r == 0x09 ||
		r == 0x0A ||
		r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}
