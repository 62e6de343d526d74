package jsonb

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"

	"livedev/internal/dyn"
	"livedev/internal/jsonstr"
)

// codec is the reusable state of one encode, decode or call: the message
// buffer plus the scanner's two spill areas. Nothing a caller receives
// aliases it — decoded strings and sequences are copied out — so it goes
// back to the pool as soon as the message is written or decoded.
type codec struct {
	// buf holds the message being built, or the body being scanned.
	buf []byte

	// Scanner position over data (usually buf) and current nesting depth.
	data  []byte
	pos   int
	depth int
	// scratch receives string literals that need unescaping.
	scratch []byte
	// stack collects sequence elements until their count is known.
	stack []dyn.Value
	// fields is what one decode's struct field slices and strings are
	// carved from.
	fields dyn.Slab
}

var codecPool = sync.Pool{New: func() any { return &codec{buf: make([]byte, 0, 1024)} }}

// maxPooledBuf bounds what one pooled codec keeps alive, like the SOAP
// render pool and the CDR encoder pool: a one-off bulk message must not
// stay resident.
const maxPooledBuf = 1 << 20

func getCodec() *codec { return codecPool.Get().(*codec) }

func putCodec(c *codec) {
	const valueSize = 24 // unsafe.Sizeof(dyn.Value{})
	if cap(c.buf) > maxPooledBuf || cap(c.scratch) > maxPooledBuf || cap(c.stack) > maxPooledBuf/valueSize {
		return
	}
	// The decoded values own the slab's chunks; nothing pooled may pin them.
	c.buf, c.data, c.scratch, c.fields = c.buf[:0], nil, c.scratch[:0], dyn.Slab{}
	codecPool.Put(c)
}

// EncodeValue renders v as a JSON value: primitives map naturally (chars as
// one-rune strings, int64 as a decimal string to dodge float64 precision),
// structs as objects with members in declaration order, sequences as arrays,
// void as null. NaN and infinities have no JSON form and are an error.
func EncodeValue(v dyn.Value) (json.RawMessage, error) {
	c := getCodec()
	defer putCodec(c)
	var err error
	if c.buf, err = appendValue(c.buf[:0], v); err != nil {
		return nil, err
	}
	return append(json.RawMessage(nil), c.buf...), nil
}

// appendValue appends the JSON form of v to buf.
func appendValue(buf []byte, v dyn.Value) ([]byte, error) {
	t := v.Type()
	switch t.Kind() {
	case dyn.KindVoid:
		return append(buf, "null"...), nil
	case dyn.KindBoolean:
		return strconv.AppendBool(buf, v.Bool()), nil
	case dyn.KindChar:
		return jsonstr.Append(buf, string(v.Char())), nil
	case dyn.KindInt32:
		return strconv.AppendInt(buf, int64(v.Int32()), 10), nil
	case dyn.KindInt64:
		buf = append(buf, '"')
		buf = strconv.AppendInt(buf, v.Int64(), 10)
		return append(buf, '"'), nil
	case dyn.KindFloat32:
		return appendFloat(buf, float64(v.Float32()), 32)
	case dyn.KindFloat64:
		return appendFloat(buf, v.Float64(), 64)
	case dyn.KindString:
		return jsonstr.Append(buf, v.Str()), nil
	case dyn.KindSequence:
		buf = append(buf, '[')
		var err error
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				buf = append(buf, ',')
			}
			if buf, err = appendValue(buf, v.Index(i)); err != nil {
				return buf, err
			}
		}
		return append(buf, ']'), nil
	case dyn.KindStruct:
		buf = append(buf, '{')
		var err error
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = jsonstr.Append(buf, t.Field(i).Name)
			buf = append(buf, ':')
			if buf, err = appendValue(buf, v.Index(i)); err != nil {
				return buf, err
			}
		}
		return append(buf, '}'), nil
	default:
		return buf, fmt.Errorf("jsonb: cannot encode %s values", t)
	}
}

// appendFloat writes f the way encoding/json does (so parent-commit peers
// see the bytes they always saw): shortest round-tripping digits, exponent
// form only below 1e-6 and from 1e21, "e-09" trimmed to "e-9".
func appendFloat(buf []byte, f float64, bits int) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return buf, fmt.Errorf("jsonb: cannot encode %v: JSON has no form for it", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 {
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) || bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	buf = strconv.AppendFloat(buf, f, format, -1, bits)
	if n := len(buf); format == 'e' && n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
		buf[n-2] = buf[n-1]
		buf = buf[:n-1]
	}
	return buf, nil
}

// appendRequest writes the call envelope {"method":…,"args":[…]}.
func appendRequest(buf []byte, method string, args []dyn.Value) ([]byte, error) {
	buf = append(buf, `{"method":`...)
	buf = jsonstr.Append(buf, method)
	buf = append(buf, `,"args":[`...)
	var err error
	for i, a := range args {
		if i > 0 {
			buf = append(buf, ',')
		}
		if buf, err = appendValue(buf, a); err != nil {
			return buf, err
		}
	}
	return append(buf, ']', '}'), nil
}

// appendResult writes the success envelope {"result":…}.
func appendResult(buf []byte, v dyn.Value) ([]byte, error) {
	buf = append(buf, `{"result":`...)
	buf, err := appendValue(buf, v)
	return append(buf, '}'), err
}

// appendError writes the failure envelope {"error":{"code":…,"message":…}}.
func appendError(buf []byte, code, msg string) []byte {
	return append(appendErrorMembers(buf, code, msg), '}', '}')
}

// appendStaleError writes the failure envelope of a stale call that carries
// the current interface document: {"error":{"code":…,"message":…,
// "interface":<doc>}}. The document is itself a JSON object, so it goes in
// verbatim, as the member's value, byte for byte what the Interface Server
// serves: nothing to escape, and nothing to unescape.
func appendStaleError(buf []byte, msg, doc string) []byte {
	buf = append(appendErrorMembers(buf, CodeNonExistentMethod, msg), `,"interface":`...)
	return append(append(buf, doc...), '}', '}')
}

// appendErrorMembers writes a failure envelope up to its error object's
// last member.
func appendErrorMembers(buf []byte, code, msg string) []byte {
	buf = append(buf, `{"error":{"code":`...)
	buf = jsonstr.Append(buf, code)
	buf = append(buf, `,"message":`...)
	return jsonstr.Append(buf, msg)
}
