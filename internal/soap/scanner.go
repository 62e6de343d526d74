package soap

import "bytes"

// Tag is what Scanner.Next stopped at.
type Tag uint8

const (
	DocEnd   Tag = iota // the end of a well-formed document
	StartTag            // a start tag; a self-closed element is only this
	EndTag              // an end tag
)

// Scanner walks the tags of a document that is not an envelope: the lexer's
// exported face, for the WSDL compiler. It accepts exactly the documents
// ParseRequest's lexer accepts, validates all of one by the time Next
// returns DocEnd, and passes over character data. Names and attribute
// values alias the input. The zero value is ready for Reset; a scanner in
// use must not be copied.
type Scanner struct {
	lx    lexer
	depth int       // of the tag Next last returned
	attr  int       // offset in lx.attrs of the attribute NextAttr returns next
	stack [8][]byte // lx.open's first backing array: a WSDL document nests six deep
}

// Reset points the scanner at the start of data.
func (s *Scanner) Reset(data []byte) {
	*s = Scanner{lx: lexer{data: data, open: s.stack[:0]}}
}

// Next scans to the next tag.
func (s *Scanner) Next() (Tag, error) {
	for {
		tok, err := s.lx.next()
		if err != nil {
			return DocEnd, err
		}
		switch tok {
		case tokEOF:
			s.depth, s.lx.attrs = 0, nil
			return DocEnd, nil
		case tokStart:
			s.depth, s.attr = len(s.lx.open), 0
			if s.lx.selfClosed {
				s.depth++
			}
			return StartTag, nil
		case tokEnd:
			s.depth, s.lx.attrs = len(s.lx.open)+1, nil
			return EndTag, nil
		}
	}
}

// Name returns the tag's name as written, prefix included.
func (s *Scanner) Name() []byte { return s.lx.name }

// Depth returns the nesting depth of the tag's element: 1 for the root.
func (s *Scanner) Depth() int { return s.depth }

// NextAttr returns the start tag's attributes one call at a time, in
// document order: the name as written and the value with its references
// resolved, which is a copy only if it held any.
func (s *Scanner) NextAttr() (name, value []byte, ok bool) {
	a := s.lx.attrs
	p := skipSpace(a, s.attr)
	if p >= len(a) {
		return nil, nil, false
	}
	name, value, s.attr, _ = scanAttr(a, p) // the lexer validated it
	if bytes.IndexByte(value, '&') >= 0 {
		value, _ = appendUnescaped(nil, value)
	}
	return name, value, true
}
