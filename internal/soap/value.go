package soap

import (
	"fmt"
	"math"
	"strconv"
	"strings"
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

// EncodeValue builds the element <name> carrying v.
func EncodeValue(name string, v dyn.Value) (*Node, error) {
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
		n.Text = formatXSDFloat(float64(v.Float32()), 32)
	case dyn.KindFloat64:
		n.Text = formatXSDFloat(v.Float64(), 64)
	case dyn.KindString:
		n.Text = v.Str()
	case dyn.KindSequence:
		for i := 0; i < v.Len(); i++ {
			item, err := EncodeValue("item", v.Index(i))
			if err != nil {
				return nil, err
			}
			n.Append(item)
		}
	case dyn.KindStruct:
		for i := 0; i < v.Len(); i++ {
			f := t.Field(i)
			fn, err := EncodeValue(f.Name, v.Index(i))
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

// appendValue renders the element <name> carrying v directly into buf —
// the streaming twin of EncodeValue + Render used on the envelope hot path.
// Its output is byte-identical to rendering the EncodeValue node tree.
func appendValue(buf []byte, name string, v dyn.Value) ([]byte, error) {
	t := v.Type()
	if t.Kind() == dyn.KindVoid {
		buf = append(buf, '<')
		buf = append(buf, name...)
		return append(buf, '/', '>'), nil
	}
	buf = append(buf, '<')
	buf = append(buf, name...)
	buf = append(buf, ` xsi:type="`...)
	buf = append(buf, xsdType(t)...)
	buf = append(buf, '"')

	closeElem := func(buf []byte) []byte {
		buf = append(buf, '<', '/')
		buf = append(buf, name...)
		return append(buf, '>')
	}
	text := func(buf []byte, s string) []byte {
		if s == "" {
			return append(buf, '/', '>')
		}
		buf = append(buf, '>')
		buf = appendEscaped(buf, s)
		return closeElem(buf)
	}

	switch t.Kind() {
	case dyn.KindBoolean:
		buf = append(buf, '>')
		buf = strconv.AppendBool(buf, v.Bool())
		return closeElem(buf), nil
	case dyn.KindChar:
		var tmp [utf8.UTFMax]byte
		n := utf8.EncodeRune(tmp[:], v.Char())
		buf = append(buf, '>')
		buf = appendEscaped(buf, string(tmp[:n]))
		return closeElem(buf), nil
	case dyn.KindInt32:
		buf = append(buf, '>')
		buf = strconv.AppendInt(buf, int64(v.Int32()), 10)
		return closeElem(buf), nil
	case dyn.KindInt64:
		buf = append(buf, '>')
		buf = strconv.AppendInt(buf, v.Int64(), 10)
		return closeElem(buf), nil
	case dyn.KindFloat32:
		return text(buf, formatXSDFloat(float64(v.Float32()), 32)), nil
	case dyn.KindFloat64:
		return text(buf, formatXSDFloat(v.Float64(), 64)), nil
	case dyn.KindString:
		return text(buf, v.Str()), nil
	case dyn.KindSequence:
		if v.Len() == 0 {
			return append(buf, '/', '>'), nil
		}
		buf = append(buf, '>')
		var err error
		for i := 0; i < v.Len(); i++ {
			if buf, err = appendValue(buf, "item", v.Index(i)); err != nil {
				return buf, err
			}
		}
		return closeElem(buf), nil
	case dyn.KindStruct:
		if v.Len() == 0 {
			return append(buf, '/', '>'), nil
		}
		buf = append(buf, '>')
		var err error
		for i := 0; i < v.Len(); i++ {
			f := t.Field(i)
			if buf, err = appendValue(buf, f.Name, v.Index(i)); err != nil {
				return buf, fmt.Errorf("struct %s field %s: %w", t.Name(), f.Name, err)
			}
		}
		return closeElem(buf), nil
	default:
		return buf, fmt.Errorf("soap: cannot encode kind %s", t.Kind())
	}
}

// DecodeValue reads a value of the expected type from an element produced
// by EncodeValue (or an interoperable peer). The expected type comes from
// the interface signature, per SOAP RPC/encoded practice.
func DecodeValue(n *Node, t *dyn.Type) (dyn.Value, error) {
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
		f, err := parseXSDFloat(strings.TrimSpace(n.Text), 32)
		if err != nil {
			return dyn.Value{}, err
		}
		return dyn.Float32Value(float32(f)), nil
	case dyn.KindFloat64:
		f, err := parseXSDFloat(strings.TrimSpace(n.Text), 64)
		if err != nil {
			return dyn.Value{}, err
		}
		return dyn.Float64Value(f), nil
	case dyn.KindString:
		return dyn.StringValue(n.Text), nil
	case dyn.KindSequence:
		elems := make([]dyn.Value, 0, len(n.Children))
		for i, c := range n.Children {
			ev, err := DecodeValue(c, t.Elem())
			if err != nil {
				return dyn.Value{}, fmt.Errorf("soap: sequence element %d: %w", i, err)
			}
			elems = append(elems, ev)
		}
		return dyn.AdoptSequence(t.Elem(), elems)
	case dyn.KindStruct:
		vals := make([]dyn.Value, t.NumFields())
		for i := range vals {
			f := t.Field(i)
			c, ok := n.Child(f.Name)
			if !ok {
				return dyn.Value{}, fmt.Errorf("soap: struct %s missing field %s", t.Name(), f.Name)
			}
			fv, err := DecodeValue(c, f.Type)
			if err != nil {
				return dyn.Value{}, fmt.Errorf("soap: struct %s field %s: %w", t.Name(), f.Name, err)
			}
			vals[i] = fv
		}
		return dyn.AdoptStruct(t, vals)
	default:
		return dyn.Value{}, fmt.Errorf("soap: cannot decode kind %s", t.Kind())
	}
}

// formatXSDFloat renders a float using XSD lexical forms for the special
// values (INF, -INF, NaN).
func formatXSDFloat(f float64, bits int) string {
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

func parseXSDFloat(s string, bits int) (float64, error) {
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
