package jsonb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"livedev/internal/dyn"
)

// The decoder is one hand-written scanner (methods on codec) that validates
// the JSON grammar of every byte it passes — consumed or skipped — and
// builds dyn values directly against the expected type. It accepts what
// encoding/json accepts: the same whitespace, number and string grammar, the
// same 10 000-level nesting limit, escapes and surrogate pairs decoded the
// same way, invalid UTF-8 and lone surrogates replaced by U+FFFD, duplicate
// object members resolved last-wins.

// DecodeValue parses a JSON value against the expected dyn type. Object
// members may come in any order and unknown members are ignored; null is
// accepted only where the type is void.
func DecodeValue(raw json.RawMessage, t *dyn.Type) (dyn.Value, error) {
	c := getCodec()
	defer putCodec(c)
	c.reset(raw)
	v, err := c.value(t)
	if err == nil {
		err = c.end()
	}
	if err != nil {
		return dyn.Value{}, err
	}
	return v, nil
}

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

func (c *codec) reset(data []byte) { c.data, c.pos, c.depth = data, 0, 0 }

func (c *codec) syntax(msg string) error {
	return fmt.Errorf("jsonb: malformed JSON at offset %d: %s", c.pos, msg)
}

// ws skips insignificant whitespace and returns the byte it stops at, 0 at
// the end of input.
func (c *codec) ws() byte {
	for c.pos < len(c.data) {
		switch b := c.data[c.pos]; b {
		case ' ', '\t', '\r', '\n':
			c.pos++
		default:
			return b
		}
	}
	return 0
}

// end checks that only whitespace follows the value just scanned.
func (c *codec) end() error {
	if c.ws(); c.pos != len(c.data) {
		return c.syntax("data after the top-level value")
	}
	return nil
}

// open consumes the '{' or '[' at c.pos and reports whether a first member
// or element follows, that is, whether the next byte is not closer.
func (c *codec) open(closer byte) (bool, error) {
	if c.depth++; c.depth > maxDepth {
		return false, c.syntax("exceeded max depth")
	}
	c.pos++
	return c.ws() != closer, nil
}

// more scans what follows a member or element: a comma (consumed) means
// another one follows, closer (left in place) means none does.
func (c *codec) more(closer byte) (bool, error) {
	switch c.ws() {
	case ',':
		c.pos++
		return true, nil
	case closer:
		return false, nil
	}
	return false, c.syntax("expected ',' or '" + string(closer) + "'")
}

// close consumes the closer that open or more stopped at.
func (c *codec) close() {
	c.pos++
	c.depth--
}

// member scans an object member up to its value — "name" and the colon —
// and returns the decoded name, a view as str returns it.
func (c *codec) member() ([]byte, error) {
	if c.ws() != '"' {
		return nil, c.syntax("expected a member name")
	}
	name, err := c.str()
	if err != nil {
		return nil, err
	}
	if c.ws() != ':' {
		return nil, c.syntax("expected ':' after a member name")
	}
	c.pos++
	return name, nil
}

func (c *codec) literal(lit string) error {
	if end := c.pos + len(lit); end > len(c.data) || string(c.data[c.pos:end]) != lit {
		return c.syntax("invalid literal")
	}
	c.pos += len(lit)
	return nil
}

func isDigit(b byte) bool { return '0' <= b && b <= '9' }

// digitsEnd returns the offset of the first non-digit at or after i.
func digitsEnd(d []byte, i int) int {
	for i < len(d) && isDigit(d[i]) {
		i++
	}
	return i
}

// number scans one number literal and returns its bytes.
func (c *codec) number() ([]byte, error) {
	d, i := c.data, c.pos
	if i < len(d) && d[i] == '-' {
		i++
	}
	// A leading 0 stands alone; whatever follows it is the caller's to reject.
	end := i + 1
	if i >= len(d) || d[i] != '0' {
		end = digitsEnd(d, i)
	}
	ok := end > i
	i = end
	if ok && i < len(d) && d[i] == '.' {
		end = digitsEnd(d, i+1)
		ok = end > i+1
		i = end
	}
	if ok && i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		end = digitsEnd(d, i)
		ok = end > i
		i = end
	}
	lit := d[c.pos:i]
	c.pos = i
	if !ok {
		return nil, c.syntax("invalid number")
	}
	return lit, nil
}

// str scans the string literal whose opening quote is at c.pos and returns
// its decoded bytes: a view of the input when the literal is plain, of
// c.scratch when it needed unescaping or UTF-8 repair. The view is valid
// until the next str call.
func (c *codec) str() ([]byte, error) {
	d := c.data
	start := c.pos + 1
	for i := start; i < len(d); {
		switch b := d[i]; {
		case b == '"':
			c.pos = i + 1
			return d[start:i], nil
		case b == '\\':
			return c.strSlow(start, i)
		case b < ' ':
			c.pos = i
			return nil, c.syntax("control character in string")
		case b < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(d[i:])
			if r == utf8.RuneError && size == 1 {
				return c.strSlow(start, i)
			}
			i += size
		}
	}
	c.pos = len(d)
	return nil, c.syntax("unterminated string")
}

// strSlow finishes str from offset i, the first byte that cannot be taken
// verbatim, unescaping into c.scratch.
func (c *codec) strSlow(start, i int) ([]byte, error) {
	d := c.data
	out := append(c.scratch[:0], d[start:i]...)
	defer func() { c.scratch = out[:0] }()
	for i < len(d) {
		switch b := d[i]; {
		case b == '"':
			c.pos = i + 1
			return out, nil
		case b == '\\':
			c.pos = i
			if i++; i >= len(d) {
				return nil, c.syntax("unterminated string")
			}
			switch e := d[i]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(d[i+1:])
				if r < 0 {
					return nil, c.syntax(`invalid \u escape`)
				}
				i += 4
				if utf16.IsSurrogate(r) {
					// A high surrogate followed by an escaped low one is
					// one rune; anything else is U+FFFD and the follower
					// is scanned on its own.
					r2 := rune(-1)
					if i+2 < len(d) && d[i+1] == '\\' && d[i+2] == 'u' {
						r2 = hex4(d[i+3:])
					}
					if r = utf16.DecodeRune(r, r2); r != unicode.ReplacementChar {
						i += 6
					}
				}
				out = utf8.AppendRune(out, r)
			default:
				return nil, c.syntax("invalid escape")
			}
			i++
		case b < ' ':
			c.pos = i
			return nil, c.syntax("control character in string")
		case b < utf8.RuneSelf:
			out = append(out, b)
			i++
		default:
			r, size := utf8.DecodeRune(d[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	c.pos = len(d)
	return nil, c.syntax("unterminated string")
}

// hex4 decodes four hex digits, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, h := range b[:4] {
		switch {
		case '0' <= h && h <= '9':
			h -= '0'
		case 'a' <= h && h <= 'f':
			h -= 'a' - 10
		case 'A' <= h && h <= 'F':
			h -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(h)
	}
	return r
}

// skip validates and consumes one JSON value of any shape.
func (c *codec) skip() error {
	switch b := c.ws(); {
	case b == '"':
		_, err := c.str()
		return err
	case b == '{':
		more, err := c.open('}')
		for more && err == nil {
			if _, err = c.member(); err == nil {
				err = c.skip()
			}
			if err == nil {
				more, err = c.more('}')
			}
		}
		if err == nil {
			c.close()
		}
		return err
	case b == '[':
		more, err := c.open(']')
		for more && err == nil {
			if err = c.skip(); err == nil {
				more, err = c.more(']')
			}
		}
		if err == nil {
			c.close()
		}
		return err
	case b == 't':
		return c.literal("true")
	case b == 'f':
		return c.literal("false")
	case b == 'n':
		return c.literal("null")
	case b == '-' || isDigit(b):
		_, err := c.number()
		return err
	case c.pos == len(c.data):
		return c.syntax("unexpected end of input")
	default:
		return c.syntax("unexpected character")
	}
}

// value decodes the next JSON value against t. After an error the position
// is undefined; a caller that has to go on scanning uses try.
func (c *codec) value(t *dyn.Type) (dyn.Value, error) {
	b := c.ws()
	switch k := t.Kind(); k {
	case dyn.KindVoid:
		// Void carries no information; any well-formed value stands for it.
		return dyn.VoidValue(), c.skip()
	case dyn.KindBoolean:
		switch b {
		case 't':
			return dyn.BoolValue(true), c.literal("true")
		case 'f':
			return dyn.BoolValue(false), c.literal("false")
		}
	case dyn.KindString:
		if b == '"' {
			s, err := c.str()
			if err != nil {
				return dyn.Value{}, err
			}
			return dyn.StringValue(c.fields.CopyString(s, len(c.data)-c.pos)), nil
		}
	case dyn.KindChar, dyn.KindInt64:
		if b == '"' {
			s, err := c.str()
			if err != nil {
				return dyn.Value{}, err
			}
			return fromString(k, s)
		}
	case dyn.KindInt32, dyn.KindFloat32, dyn.KindFloat64:
		if b == '-' || isDigit(b) {
			lit, err := c.number()
			if err != nil {
				return dyn.Value{}, err
			}
			return fromNumber(k, lit)
		}
	case dyn.KindSequence:
		if b == '[' {
			return c.sequence(t.Elem())
		}
	case dyn.KindStruct:
		if b == '{' {
			return c.structure(t)
		}
	default:
		return dyn.Value{}, fmt.Errorf("jsonb: cannot decode %s values", t)
	}
	return dyn.Value{}, fmt.Errorf("jsonb: value at offset %d is not a %s", c.pos, t)
}

// fromString builds a char or int64, the kinds besides string that travel
// as a JSON string, from the decoded (hence valid UTF-8) bytes of one.
func fromString(k dyn.Kind, s []byte) (dyn.Value, error) {
	if k == dyn.KindChar {
		if r, size := utf8.DecodeRune(s); size > 0 && size == len(s) {
			return dyn.CharValue(r), nil
		}
		return dyn.Value{}, fmt.Errorf("jsonb: char value must be one rune, got %q", s)
	}
	n, err := strconv.ParseInt(string(s), 10, 64)
	if err != nil {
		return dyn.Value{}, fmt.Errorf("jsonb: decoding int64: %w", err)
	}
	return dyn.Int64Value(n), nil
}

// fromNumber builds the value of a kind that travels as a JSON number from
// a literal already checked against the number grammar, with the range and
// integrality rules encoding/json applies to the matching Go type.
func fromNumber(k dyn.Kind, lit []byte) (dyn.Value, error) {
	switch k {
	case dyn.KindInt32:
		n, err := strconv.ParseInt(string(lit), 10, 32)
		if err != nil {
			return dyn.Value{}, fmt.Errorf("jsonb: decoding int32: %w", err)
		}
		return dyn.Int32Value(int32(n)), nil
	case dyn.KindFloat32:
		f, err := strconv.ParseFloat(string(lit), 32)
		if err != nil {
			return dyn.Value{}, fmt.Errorf("jsonb: decoding float32: %w", err)
		}
		return dyn.Float32Value(float32(f)), nil
	default:
		f, err := strconv.ParseFloat(string(lit), 64)
		if err != nil {
			return dyn.Value{}, fmt.Errorf("jsonb: decoding float64: %w", err)
		}
		return dyn.Float64Value(f), nil
	}
}

// try decodes the next value against t like value, but when a well-formed
// value does not fit t it still consumes it and reports the misfit apart
// from err, which is then only ever a grammar error: the caller can keep
// scanning, and decide later whether the misfit matters (a later duplicate
// member may supersede it).
func (c *codec) try(t *dyn.Type) (v dyn.Value, misfit, err error) {
	c.ws()
	at, depth := c.pos, c.depth
	if v, misfit = c.value(t); misfit != nil {
		c.pos, c.depth = at, depth
		err = c.skip()
	}
	return v, misfit, err
}

// sequence decodes the array at c.pos. Elements collect on c.stack until
// the closing bracket gives their count, so the value gets one exact-size
// slice however long the array is.
func (c *codec) sequence(elem *dyn.Type) (dyn.Value, error) {
	base := len(c.stack)
	defer func() {
		clear(c.stack[base:])
		c.stack = c.stack[:base]
	}()
	more, err := c.open(']')
	for more && err == nil {
		var v dyn.Value
		if v, err = c.value(elem); err == nil {
			c.stack = append(c.stack, v)
			more, err = c.more(']')
		}
	}
	if err != nil {
		return dyn.Value{}, err
	}
	c.close()
	return dyn.AdoptSequence(elem, append([]dyn.Value(nil), c.stack[base:]...))
}

// structure decodes the object at c.pos as struct type t: members matched to
// fields by exact name in any order, the last of duplicates kept, unknown
// members skipped, every field required.
func (c *codec) structure(t *dyn.Type) (dyn.Value, error) {
	n := t.NumFields()
	vals := c.fields.Take(n)
	var seenBuf [64]bool
	seen := seenBuf[:]
	if n > len(seen) {
		seen = make([]bool, n)
	}
	var misfits []error // per field, allocated on the first misfit

	// Encoders emit declaration order, so the search for each member's
	// field starts after the previous hit.
	from := 0
	more, err := c.open('}')
	for more && err == nil {
		var name []byte
		if name, err = c.member(); err != nil {
			break
		}
		idx := -1
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
		if idx < 0 {
			err = c.skip()
		} else {
			var misfit error
			vals[idx], misfit, err = c.try(t.Field(idx).Type)
			if misfit != nil && misfits == nil {
				misfits = make([]error, n)
			}
			if misfits != nil {
				misfits[idx] = misfit
			}
			seen[idx] = true
			from = idx + 1
		}
		if err == nil {
			more, err = c.more('}')
		}
	}
	if err != nil {
		return dyn.Value{}, err
	}
	c.close()
	for i := range vals {
		if !seen[i] {
			return dyn.Value{}, fmt.Errorf("jsonb: struct %s missing field %s", t.Name(), t.Field(i).Name)
		}
	}
	for i, misfit := range misfits {
		if misfit != nil {
			return dyn.Value{}, fmt.Errorf("jsonb: struct %s field %s: %w", t.Name(), t.Field(i).Name, misfit)
		}
	}
	return dyn.AdoptStruct(t, vals)
}

// ---- Call envelopes ----

// call is a scanned request envelope.
type call struct {
	method string
	args   []dyn.Value
	// stale says why the call does not fit the live interface — unknown
	// method, wrong argument count, an argument that does not decode as its
	// parameter type; nil when args are ready to dispatch.
	stale error
}

// parseCall scans the request envelope in c.data, resolving the method
// against the live interface through lookup and decoding each argument
// directly against its parameter type. Only a grammar violation is an
// error; a well-formed call that does not fit comes back with stale set.
func (c *codec) parseCall(lookup func(string) (dyn.MethodSig, bool)) (call, error) {
	var out call
	if c.ws() != '{' {
		return out, c.syntax("the request must be an object")
	}
	var (
		named   bool   // a method member has been seen
		argsAt  = -1   // offset of the args array, once seen
		bound   bool   // args have been decoded,
		boundTo string // against this method's signature
	)
	more, err := c.open('}')
	for more && err == nil {
		var name []byte
		if name, err = c.member(); err != nil {
			break
		}
		switch string(name) {
		case "method":
			if c.ws() != '"' {
				return out, c.syntax("method must be a string")
			}
			if name, err = c.str(); err == nil {
				out.method, named = string(name), true
			}
		case "args":
			if c.ws() != '[' {
				return out, c.syntax("args must be an array")
			}
			argsAt, bound = c.pos, false
			if named {
				// The usual order: decode in this same pass.
				out.args, out.stale = c.bind(lookup, out.method, argsAt)
				bound, boundTo = true, out.method
			}
			if !bound || out.stale != nil {
				c.pos, c.depth = argsAt, 1
				err = c.skip()
			}
		default:
			err = c.skip()
		}
		if err == nil {
			more, err = c.more('}')
		}
	}
	if err != nil {
		return out, err
	}
	c.close()
	if err := c.end(); err != nil {
		return out, err
	}
	if !bound || boundTo != out.method {
		// args came before (or without) the method that governs them. The
		// text is validated by now, so a failure here is a misfit.
		out.args, out.stale = c.bind(lookup, out.method, argsAt)
	}
	return out, nil
}

// bind decodes the args array at offset at (no arguments when at < 0)
// against the live signature of method.
func (c *codec) bind(lookup func(string) (dyn.MethodSig, bool), method string, at int) ([]dyn.Value, error) {
	sig, ok := lookup(method)
	if !ok {
		return nil, fmt.Errorf("jsonb: no method %q", method)
	}
	args := make([]dyn.Value, 0, len(sig.Params))
	if at >= 0 {
		c.pos, c.depth = at, 1
		more, err := c.open(']')
		for more && err == nil {
			if len(args) == len(sig.Params) {
				return nil, fmt.Errorf("jsonb: %s takes %d arguments, got more", method, len(sig.Params))
			}
			var v dyn.Value
			if v, err = c.value(sig.Params[len(args)].Type); err == nil {
				args = append(args, v)
				more, err = c.more(']')
			}
		}
		if err != nil {
			return nil, err
		}
		c.close()
	}
	if len(args) != len(sig.Params) {
		return nil, fmt.Errorf("jsonb: %s takes %d arguments, got %d", method, len(sig.Params), len(args))
	}
	return args, nil
}

// wireErrorType is the {"code":…,"message":…} object of a failure reply.
var wireErrorType = dyn.MustStructOf("error",
	dyn.StructField{Name: "code", Type: dyn.StringT},
	dyn.StructField{Name: "message", Type: dyn.StringT})

// reply is a scanned response envelope.
type reply struct {
	result    dyn.Value
	hasResult bool
	// misfit says why a present result does not decode as the expected type.
	misfit error
	// failure is the error member, a wireErrorType value, when failed is set.
	failure dyn.Value
	failed  bool
	// iface is the error object's "interface" member as its raw bytes — the
	// document a stale reply carries — or nil. It aliases the scanned body.
	iface []byte
}

// parseReply scans the response envelope in c.data, decoding the result
// directly against t. A grammar violation is an error, and so is an error
// member that is not the protocol's error object.
func (c *codec) parseReply(t *dyn.Type) (reply, error) {
	var out reply
	if c.ws() != '{' {
		return out, c.syntax("the response must be an object")
	}
	more, err := c.open('}')
	for more && err == nil {
		var name []byte
		if name, err = c.member(); err != nil {
			break
		}
		switch string(name) {
		case "result":
			out.result, out.misfit, err = c.try(t)
			out.hasResult = true
		case "error":
			out.failure, out.iface, err = c.errorObject()
			out.failed = true
		default:
			err = c.skip()
		}
		if err == nil {
			more, err = c.more('}')
		}
	}
	if err != nil {
		return out, err
	}
	c.close()
	return out, c.end()
}

// errorObject scans the error member's value: the protocol's error object,
// whose "code" and "message" must be strings (returned as a wireErrorType
// value), and whose "interface", when there is one, is the document a stale
// reply carries, returned as its exact bytes from the colon to the comma or
// brace after it (nil when there is none). Members may come in any order; the last of duplicates
// counts, and unknown ones are skipped.
func (c *codec) errorObject() (failure dyn.Value, iface []byte, err error) {
	if c.ws() != '{' {
		return failure, nil, c.syntax("malformed error reply: not an object")
	}
	var fields [2]dyn.Value // code, message
	var seen [2]bool
	more, err := c.open('}')
	for more && err == nil {
		var name []byte
		if name, err = c.member(); err != nil {
			break
		}
		switch f := string(name); f {
		case "code", "message":
			i := 0
			if f == "message" {
				i = 1
			}
			if c.ws() != '"' {
				return failure, nil, c.syntax("malformed error reply: " + f + " is not a string")
			}
			var s []byte
			if s, err = c.str(); err == nil {
				fields[i], seen[i] = dyn.StringValue(c.fields.CopyString(s, len(c.data)-c.pos)), true
			}
		case "interface":
			from := c.pos
			if err = c.skip(); err == nil {
				c.ws()
				iface = c.data[from:c.pos]
			}
		default:
			err = c.skip()
		}
		if err == nil {
			more, err = c.more('}')
		}
	}
	if err != nil {
		return failure, nil, err
	}
	c.close()
	if !seen[0] || !seen[1] {
		return failure, nil, c.syntax("malformed error reply: code or message missing")
	}
	failure, err = dyn.AdoptStruct(wireErrorType, fields[:])
	return failure, iface, err
}

// ---- Bodies ----

// maxBodyBytes caps a request or response body, as the SOAP and h2b
// bindings cap theirs.
const maxBodyBytes = 16 << 20

var errBodyTooLarge = errors.New("jsonb: message body exceeds 16 MiB")

// readBody reads r to its end into buf and fails once the body passes
// maxBodyBytes. A declared length is only a claim, so it buys at most a
// pool-sized buffer up front; past that the buffer grows as bytes arrive.
func readBody(buf []byte, r io.Reader, declared int64) ([]byte, error) {
	if declared > maxBodyBytes {
		return buf, errBodyTooLarge
	}
	b := bytes.NewBuffer(buf[:0])
	if declared > 0 {
		b.Grow(int(min(declared, maxPooledBuf)) + bytes.MinRead)
	}
	_, err := b.ReadFrom(io.LimitReader(r, maxBodyBytes+1))
	if err == nil && b.Len() > maxBodyBytes {
		err = errBodyTooLarge
	}
	return b.Bytes(), err
}
