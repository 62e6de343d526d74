package soap

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"livedev/internal/dyn"
)

// xsdType returns the xsi:type attribute value for a dyn type, for
// interoperability with type-annotating SOAP stacks.
func xsdType(t *dyn.Type) string {
	switch t.Kind() {
	case dyn.KindBoolean:
		return "xsd:boolean"
	case dyn.KindChar:
		return "xsd:string"
	case dyn.KindInt32:
		return "xsd:int"
	case dyn.KindInt64:
		return "xsd:long"
	case dyn.KindFloat32:
		return "xsd:float"
	case dyn.KindFloat64:
		return "xsd:double"
	case dyn.KindString:
		return "xsd:string"
	case dyn.KindSequence:
		return "soapenc:Array"
	case dyn.KindStruct:
		return "tns:" + t.Name()
	default:
		return "xsd:anyType"
	}
}

// ---- Encoding ----

// appendValue renders the element <name> carrying v into buf: void as an
// empty element, scalars as character data, sequences as <item> children,
// structs as one child per member in declaration order, everything but void
// annotated with xsi:type. The bytes are those the tests' tree renderer
// produces for the same element (attribute values escaped, an element
// without content self-closed). On error buf holds a partial element.
func appendValue(buf []byte, name string, v dyn.Value) ([]byte, error) {
	t := v.Type()
	k := t.Kind()
	buf = append(buf, '<')
	buf = append(buf, name...)
	if k == dyn.KindVoid {
		return append(buf, '/', '>'), nil
	}
	buf = append(buf, ` xsi:type="`...)
	if k == dyn.KindStruct {
		buf = AppendEscaped(append(buf, "tns:"...), t.Name())
	} else {
		buf = append(buf, xsdType(t)...)
	}
	buf = append(buf, '"', '>')
	content := len(buf)

	var err error
	switch k {
	case dyn.KindBoolean:
		buf = strconv.AppendBool(buf, v.Bool())
	case dyn.KindChar:
		var tmp [utf8.UTFMax]byte
		n := utf8.EncodeRune(tmp[:], v.Char())
		buf = AppendEscaped(buf, string(tmp[:n]))
	case dyn.KindInt32:
		buf = strconv.AppendInt(buf, int64(v.Int32()), 10)
	case dyn.KindInt64:
		buf = strconv.AppendInt(buf, v.Int64(), 10)
	case dyn.KindFloat32:
		buf = appendXSDFloat(buf, float64(v.Float32()), 32)
	case dyn.KindFloat64:
		buf = appendXSDFloat(buf, v.Float64(), 64)
	case dyn.KindString:
		buf = AppendEscaped(buf, v.Str())
	case dyn.KindSequence:
		for i := 0; i < v.Len() && err == nil; i++ {
			buf, err = appendValue(buf, "item", v.Index(i))
		}
	case dyn.KindStruct:
		for i := 0; i < v.Len() && err == nil; i++ {
			f := t.Field(i)
			if buf, err = appendValue(buf, f.Name, v.Index(i)); err != nil {
				err = fmt.Errorf("struct %s field %s: %w", t.Name(), f.Name, err)
			}
		}
	default:
		err = fmt.Errorf("soap: cannot encode kind %s", k)
	}
	if err != nil {
		return buf, err
	}
	if len(buf) == content {
		buf[content-1] = '/'
		return append(buf, '>'), nil
	}
	buf = append(buf, '<', '/')
	buf = append(buf, name...)
	return append(buf, '>'), nil
}

// appendXSDFloat appends a float in XSD lexical form: shortest round-trip
// digits, and INF, -INF, NaN for the special values.
func appendXSDFloat(buf []byte, f float64, bits int) []byte {
	switch {
	case math.IsInf(f, 1):
		return append(buf, "INF"...)
	case math.IsInf(f, -1):
		return append(buf, "-INF"...)
	case math.IsNaN(f):
		return append(buf, "NaN"...)
	}
	return strconv.AppendFloat(buf, f, 'g', -1, bits)
}

// ---- Decoding ----

// Element is a handle on one element of a parsed envelope: its bytes, from
// the '<' of its start tag through its end tag, aliasing the buffer the
// envelope was parsed from. It is valid while that buffer is; decode it (or
// copy it) before recycling the buffer.
type Element []byte

// localName returns the element's tag name without its namespace prefix.
func (e Element) localName() []byte {
	if len(e) == 0 {
		return nil
	}
	return localName(e[1:nameEnd(e, 1)])
}

// decoder is the scanner typed against *dyn.Type: it reads tokens off the
// lexer and builds dyn values directly, with no tree in between.
type decoder struct {
	lx lexer
	// scratch receives character data that needs assembling: references to
	// resolve, or several runs split by CDATA or child elements.
	scratch []byte
	// stack collects sequence elements until their count is known.
	stack []dyn.Value
	// fields is what one decode's struct member slices and strings are
	// carved from.
	fields dyn.Slab
}

var decoderPool = sync.Pool{New: func() any { return new(decoder) }}

func putDecoder(d *decoder) {
	const valueSize = 24 // unsafe.Sizeof(dyn.Value{})
	if cap(d.scratch) > maxPooledRender || cap(d.stack) > maxPooledRender/valueSize || cap(d.lx.open) > 64 {
		return
	}
	// Nothing pooled may pin the caller's buffer, or the chunks the decoded
	// value now owns.
	clear(d.lx.open[:cap(d.lx.open)])
	d.lx = lexer{open: d.lx.open[:0]}
	d.fields = dyn.Slab{}
	decoderPool.Put(d)
}

// enter points the decoder at e and scans its start tag: the lexer returns
// that, or fails.
func (d *decoder) enter(e Element) error {
	d.lx = lexer{data: e, open: d.lx.open[:0]}
	_, err := d.lx.next()
	return err
}

// DecodeValue reads a value of the expected type from an element of a
// parsed envelope. The expected type comes from the interface signature,
// per SOAP RPC/encoded practice; xsi:type annotations are not consulted.
// Struct members are matched by local name in any order (the first of
// duplicates counts, unknown ones are skipped), sequence items are the
// child elements whatever their names, and a scalar is the element's own
// character data, white space trimmed for the numeric and boolean kinds.
// The element is validated again as it is scanned, so a handle that did not
// come from ParseRequest or ParseResponse is safe to pass. The returned
// value owns all its memory.
func DecodeValue(e Element, t *dyn.Type) (dyn.Value, error) {
	if t.Kind() == dyn.KindVoid {
		return dyn.VoidValue(), nil
	}
	d := decoderPool.Get().(*decoder)
	defer putDecoder(d)
	if err := d.enter(e); err != nil {
		return dyn.Value{}, err
	}
	return d.value(t)
}

// value decodes the element whose start tag the lexer just returned and
// consumes it through its end tag. After an error the position is
// undefined.
func (d *decoder) value(t *dyn.Type) (dyn.Value, error) {
	switch k := t.Kind(); k {
	case dyn.KindVoid:
		return dyn.VoidValue(), d.skip()
	case dyn.KindSequence:
		return d.sequence(t.Elem())
	case dyn.KindStruct:
		return d.structure(t)
	case dyn.KindString:
		text, err := d.chars()
		if err != nil {
			return dyn.Value{}, err
		}
		return dyn.StringValue(d.fields.CopyString(text, len(d.lx.data)-d.lx.pos)), nil
	case dyn.KindBoolean, dyn.KindChar, dyn.KindInt32, dyn.KindInt64,
		dyn.KindFloat32, dyn.KindFloat64:
		text, err := d.chars()
		if err != nil {
			return dyn.Value{}, err
		}
		return fromChars(k, text)
	default:
		return dyn.Value{}, fmt.Errorf("soap: cannot decode kind %s", k)
	}
}

// try decodes the element whose start tag the lexer just returned like
// value, but when a well-formed element does not fit t it still consumes it
// and reports the misfit apart from err, which is then only ever a grammar
// error: the caller can walk on. After a misfit the lexer rewinds to the
// element's content and skips it. value never lexes past the element's end
// tag, so the open-name stack still holds the element's name at the saved
// length.
func (d *decoder) try(t *dyn.Type) (v dyn.Value, misfit, err error) {
	lx := &d.lx
	at, open, selfClosed := lx.pos, len(lx.open), lx.selfClosed
	if v, misfit = d.value(t); misfit != nil {
		lx.pos, lx.open, lx.selfClosed = at, lx.open[:open], selfClosed
		err = d.skip()
	}
	return v, misfit, err
}

// skip consumes the rest of the current element — validated by the lexer,
// iteratively, so no depth of nesting costs stack.
func (d *decoder) skip() error {
	if d.lx.selfClosed {
		return nil
	}
	for depth := len(d.lx.open); len(d.lx.open) >= depth; {
		if _, err := d.lx.next(); err != nil {
			return err
		}
	}
	return nil
}

// chars consumes the rest of the current element and returns its direct
// character data (text and CDATA, references resolved), ignoring child
// elements. The result aliases the input or d.scratch and is valid until
// the next call.
func (d *decoder) chars() ([]byte, error) {
	lx := &d.lx
	if lx.selfClosed {
		return nil, nil
	}
	var text []byte // the data so far: a view of the input until assembled
	assembled := false
	for depth := len(lx.open); ; {
		tok, err := lx.next()
		if err != nil {
			return nil, err
		}
		if len(lx.open) < depth {
			break
		}
		if len(lx.open) > depth || (tok != tokText && tok != tokCDATA) {
			continue
		}
		resolve := tok == tokText && bytes.IndexByte(lx.text, '&') >= 0
		if !assembled && len(text) == 0 && !resolve {
			text = lx.text
			continue
		}
		if !assembled {
			text = append(d.scratch[:0], text...)
			assembled = true
		}
		if resolve {
			text, _ = appendUnescaped(text, lx.text) // the lexer validated it
		} else {
			text = append(text, lx.text...)
		}
	}
	if assembled {
		d.scratch = text[:0]
	}
	return text, nil
}

// fromChars builds a scalar of kind k, not a string, from an element's
// character data.
func fromChars(k dyn.Kind, text []byte) (dyn.Value, error) {
	switch k {
	case dyn.KindChar:
		// One rune exactly; a stray byte of invalid UTF-8 counts as the
		// one rune U+FFFD, as it does when a string is ranged over.
		if r, size := utf8.DecodeRune(text); size > 0 && size == len(text) {
			return dyn.CharValue(r), nil
		}
		return dyn.Value{}, fmt.Errorf("soap: char element must hold exactly one character, got %q", text)
	}
	text = bytes.TrimSpace(text)
	switch k {
	case dyn.KindBoolean:
		switch string(text) {
		case "true", "1":
			return dyn.BoolValue(true), nil
		case "false", "0":
			return dyn.BoolValue(false), nil
		}
		return dyn.Value{}, fmt.Errorf("soap: invalid boolean %q", text)
	case dyn.KindInt32:
		i, err := strconv.ParseInt(string(text), 10, 32)
		if err != nil {
			return dyn.Value{}, fmt.Errorf("soap: invalid int %q", text)
		}
		return dyn.Int32Value(int32(i)), nil
	case dyn.KindInt64:
		i, err := strconv.ParseInt(string(text), 10, 64)
		if err != nil {
			return dyn.Value{}, fmt.Errorf("soap: invalid long %q", text)
		}
		return dyn.Int64Value(i), nil
	case dyn.KindFloat32:
		f, err := parseXSDFloat(text, 32)
		if err != nil {
			return dyn.Value{}, err
		}
		return dyn.Float32Value(float32(f)), nil
	default:
		f, err := parseXSDFloat(text, 64)
		if err != nil {
			return dyn.Value{}, err
		}
		return dyn.Float64Value(f), nil
	}
}

func parseXSDFloat(s []byte, bits int) (float64, error) {
	switch string(s) {
	case "INF", "+INF":
		return math.Inf(1), nil
	case "-INF":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	f, err := strconv.ParseFloat(string(s), bits)
	if err != nil {
		return 0, fmt.Errorf("soap: invalid float %q", s)
	}
	return f, nil
}

// sequence decodes the current element as a sequence: every child element
// is an item. Items collect on d.stack until the end tag gives their count,
// so the value gets one exact-size slice however long the sequence is.
func (d *decoder) sequence(elem *dyn.Type) (dyn.Value, error) {
	base := len(d.stack)
	defer func() {
		clear(d.stack[base:])
		d.stack = d.stack[:base]
	}()
	if lx := &d.lx; !lx.selfClosed {
		for depth := len(lx.open); ; {
			tok, err := lx.next()
			if err != nil {
				return dyn.Value{}, err
			}
			if len(lx.open) < depth {
				break
			}
			if tok != tokStart {
				continue
			}
			v, err := d.value(elem)
			if err != nil {
				return dyn.Value{}, fmt.Errorf("soap: sequence element %d: %w", len(d.stack)-base, err)
			}
			d.stack = append(d.stack, v)
		}
	}
	return dyn.AdoptSequence(elem, append([]dyn.Value(nil), d.stack[base:]...))
}

// structure decodes the current element as struct type t: child elements
// matched to members by local name in any order, the first of duplicates
// kept, unknown ones skipped, every member required.
func (d *decoder) structure(t *dyn.Type) (dyn.Value, error) {
	n := t.NumFields()
	vals := d.fields.Take(n)
	var seenBuf [64]bool
	seen := seenBuf[:]
	if n > len(seen) {
		seen = make([]bool, n)
	}
	// Encoders emit declaration order, so the search for each child's
	// member starts after the previous hit.
	from, filled := 0, 0
	if lx := &d.lx; !lx.selfClosed {
		for depth := len(lx.open); ; {
			tok, err := lx.next()
			if err != nil {
				return dyn.Value{}, err
			}
			if len(lx.open) < depth {
				break
			}
			if tok != tokStart {
				continue
			}
			name, idx := localName(lx.name), -1
			for k := 0; k < n; k++ {
				i := from + k
				if i >= n {
					i -= n
				}
				if t.Field(i).Name == string(name) {
					idx = i
					break
				}
			}
			if idx < 0 || seen[idx] {
				if err := d.skip(); err != nil {
					return dyn.Value{}, err
				}
				continue
			}
			f := t.Field(idx)
			if vals[idx], err = d.value(f.Type); err != nil {
				return dyn.Value{}, fmt.Errorf("soap: struct %s field %s: %w", t.Name(), f.Name, err)
			}
			seen[idx] = true
			from, filled = idx+1, filled+1
		}
	}
	if filled < n {
		for i := range vals {
			if !seen[i] {
				return dyn.Value{}, fmt.Errorf("soap: struct %s missing field %s", t.Name(), t.Field(i).Name)
			}
		}
	}
	return dyn.AdoptStruct(t, vals)
}
