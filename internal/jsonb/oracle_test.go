package jsonb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"livedev/internal/dyn"
)

// The differential oracle: the encoding/json-recursive codec the one-pass
// scanner replaced, kept as the reference the table and fuzz tests compare
// against, plus envelope parsers written the obvious way on top of it.

// oracleEncodeValue is the parent commit's EncodeValue, verbatim: one
// json.Marshal per nesting level, struct members as a map (so sorted keys).
func oracleEncodeValue(v dyn.Value) (json.RawMessage, error) {
	switch v.Type().Kind() {
	case dyn.KindVoid:
		return json.RawMessage("null"), nil
	case dyn.KindBoolean:
		return json.Marshal(v.Bool())
	case dyn.KindChar:
		return json.Marshal(string(v.Char()))
	case dyn.KindInt32:
		return json.Marshal(v.Int32())
	case dyn.KindInt64:
		return json.Marshal(strconv.FormatInt(v.Int64(), 10))
	case dyn.KindFloat32:
		return json.Marshal(v.Float32())
	case dyn.KindFloat64:
		return json.Marshal(v.Float64())
	case dyn.KindString:
		return json.Marshal(v.Str())
	case dyn.KindSequence:
		elems := make([]json.RawMessage, 0, v.Len())
		for i := 0; i < v.Len(); i++ {
			e, err := oracleEncodeValue(v.Index(i))
			if err != nil {
				return nil, err
			}
			elems = append(elems, e)
		}
		return json.Marshal(elems)
	case dyn.KindStruct:
		obj := make(map[string]json.RawMessage, v.Type().NumFields())
		for _, f := range v.Type().Fields() {
			fv, _ := v.Field(f.Name)
			e, err := oracleEncodeValue(fv)
			if err != nil {
				return nil, err
			}
			obj[f.Name] = e
		}
		return json.Marshal(obj)
	default:
		return nil, fmt.Errorf("jsonb: cannot encode %s values", v.Type())
	}
}

// oracleDecodeValue is the parent commit's DecodeValue — one json.Unmarshal
// per nesting level — with two fixes the scanner shares: null is rejected
// for every kind but void (Unmarshal treats it as a silent no-op), and a
// void value must at least be well-formed JSON.
func oracleDecodeValue(raw json.RawMessage, t *dyn.Type) (dyn.Value, error) {
	if t.Kind() != dyn.KindVoid && string(bytes.TrimSpace(raw)) == "null" {
		return dyn.Value{}, fmt.Errorf("jsonb: null is not a %s", t)
	}
	switch t.Kind() {
	case dyn.KindVoid:
		if !json.Valid(raw) {
			return dyn.Value{}, errors.New("jsonb: malformed JSON")
		}
		return dyn.VoidValue(), nil
	case dyn.KindBoolean:
		var b bool
		if err := json.Unmarshal(raw, &b); err != nil {
			return dyn.Value{}, fmt.Errorf("jsonb: decoding boolean: %w", err)
		}
		return dyn.BoolValue(b), nil
	case dyn.KindChar:
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return dyn.Value{}, fmt.Errorf("jsonb: decoding char: %w", err)
		}
		r := []rune(s)
		if len(r) != 1 {
			return dyn.Value{}, fmt.Errorf("jsonb: char value must be one rune, got %q", s)
		}
		return dyn.CharValue(r[0]), nil
	case dyn.KindInt32:
		var i int32
		if err := json.Unmarshal(raw, &i); err != nil {
			return dyn.Value{}, fmt.Errorf("jsonb: decoding int32: %w", err)
		}
		return dyn.Int32Value(i), nil
	case dyn.KindInt64:
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return dyn.Value{}, fmt.Errorf("jsonb: decoding int64: %w", err)
		}
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return dyn.Value{}, fmt.Errorf("jsonb: decoding int64: %w", err)
		}
		return dyn.Int64Value(i), nil
	case dyn.KindFloat32:
		var f float32
		if err := json.Unmarshal(raw, &f); err != nil {
			return dyn.Value{}, fmt.Errorf("jsonb: decoding float32: %w", err)
		}
		return dyn.Float32Value(f), nil
	case dyn.KindFloat64:
		var f float64
		if err := json.Unmarshal(raw, &f); err != nil {
			return dyn.Value{}, fmt.Errorf("jsonb: decoding float64: %w", err)
		}
		return dyn.Float64Value(f), nil
	case dyn.KindString:
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return dyn.Value{}, fmt.Errorf("jsonb: decoding string: %w", err)
		}
		return dyn.StringValue(s), nil
	case dyn.KindSequence:
		var elems []json.RawMessage
		if err := json.Unmarshal(raw, &elems); err != nil {
			return dyn.Value{}, fmt.Errorf("jsonb: decoding sequence: %w", err)
		}
		vals := make([]dyn.Value, 0, len(elems))
		for _, e := range elems {
			v, err := oracleDecodeValue(e, t.Elem())
			if err != nil {
				return dyn.Value{}, err
			}
			vals = append(vals, v)
		}
		return dyn.SequenceValue(t.Elem(), vals...)
	case dyn.KindStruct:
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(raw, &obj); err != nil {
			return dyn.Value{}, fmt.Errorf("jsonb: decoding struct %s: %w", t.Name(), err)
		}
		fields := make([]dyn.Value, 0, t.NumFields())
		for _, f := range t.Fields() {
			fraw, ok := obj[f.Name]
			if !ok {
				return dyn.Value{}, fmt.Errorf("jsonb: struct %s missing field %s", t.Name(), f.Name)
			}
			fv, err := oracleDecodeValue(fraw, f.Type)
			if err != nil {
				return dyn.Value{}, err
			}
			fields = append(fields, fv)
		}
		return dyn.StructValue(t, fields...)
	default:
		return dyn.Value{}, fmt.Errorf("jsonb: cannot decode %s values", t)
	}
}

// oracleCall is what oracleParseCall makes of a request envelope; it
// compares field for field with what parseCall returns.
type oracleCall struct {
	method string
	args   []dyn.Value
	stale  bool
}

// oracleMembers splits a JSON object into its members (last duplicate
// wins, names matched exactly), rejecting anything that is not one object
// followed by whitespace.
func oracleMembers(data []byte) (map[string]json.RawMessage, error) {
	if !json.Valid(data) || !bytes.HasPrefix(bytes.TrimLeft(data, " \t\r\n"), []byte("{")) {
		return nil, errors.New("jsonb: not a JSON object")
	}
	var m map[string]json.RawMessage
	err := json.Unmarshal(data, &m)
	return m, err
}

func oracleParseCall(data []byte, lookup func(string) (dyn.MethodSig, bool)) (oracleCall, error) {
	var out oracleCall
	env, err := oracleMembers(data)
	if err != nil {
		return out, err
	}
	if raw, ok := env["method"]; ok {
		if raw[0] != '"' {
			return out, errors.New("jsonb: method must be a string")
		}
		if err := json.Unmarshal(raw, &out.method); err != nil {
			return out, err
		}
	}
	var raws []json.RawMessage
	if raw, ok := env["args"]; ok {
		if raw[0] != '[' {
			return out, errors.New("jsonb: args must be an array")
		}
		if err := json.Unmarshal(raw, &raws); err != nil {
			return out, err
		}
	}
	sig, ok := lookup(out.method)
	if !ok || len(raws) != len(sig.Params) {
		out.stale = true
		return out, nil
	}
	for i, p := range sig.Params {
		v, err := oracleDecodeValue(raws[i], p.Type)
		if err != nil {
			out.args, out.stale = nil, true
			return out, nil
		}
		out.args = append(out.args, v)
	}
	return out, nil
}
