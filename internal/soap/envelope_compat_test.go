package soap

import (
	"testing"

	"livedev/internal/dyn"
)

// nodeEnvelope reconstructs the pre-skeleton envelope rendering: an
// explicit Node tree around the body content. The cached-skeleton fast path
// must stay byte-identical to it.
func nodeEnvelope(body ...*Node) *Node {
	env := NewNode("soapenv:Envelope")
	env.Attrs["xmlns:soapenv"] = NSEnvelope
	env.Attrs["xmlns:xsi"] = NSXSI
	env.Attrs["xmlns:xsd"] = NSXSD
	env.Attrs["xmlns:soapenc"] = NSEncoding
	b := env.Append(NewNode("soapenv:Body"))
	for _, n := range body {
		b.Append(n)
	}
	return env
}

func TestBuildRequestMatchesNodeRender(t *testing.T) {
	seq := dyn.MustSequenceValue(dyn.Int32T, dyn.Int32Value(1), dyn.Int32Value(2))
	st := dyn.MustStructOf("Msg",
		dyn.StructField{Name: "from", Type: dyn.StringT},
		dyn.StructField{Name: "id", Type: dyn.Int64T})
	quoted := dyn.MustStructOf(`A"B&C<'>`, dyn.StructField{Name: "n", Type: dyn.Int32T})
	cases := []struct {
		ns, method string
		params     []NamedValue
	}{
		{"urn:Calc", "add", []NamedValue{
			{Name: "a", Value: dyn.Int32Value(2)},
			{Name: "b", Value: dyn.Int32Value(-3)},
		}},
		{"urn:Calc", "noArgs", nil},
		{"urn:Esc&aped", "tricky", []NamedValue{
			{Name: "s", Value: dyn.StringValue(`needs <escaping> & "quotes" 'too'`)},
			{Name: "empty", Value: dyn.StringValue("")},
			{Name: "c", Value: dyn.CharValue('λ')},
			{Name: "f", Value: dyn.Float64Value(1.25)},
			{Name: "t", Value: dyn.BoolValue(true)},
			{Name: "seq", Value: seq},
			{Name: "emptySeq", Value: dyn.MustSequenceValue(dyn.Int32T)},
			{Name: "st", Value: dyn.MustStructValue(st, dyn.StringValue("alice"), dyn.Int64Value(7))},
		}},
		// A struct's name goes into an attribute value and is escaped there
		// (the streaming encoder used to append it raw, producing an
		// envelope its own parser rejected).
		{"urn:Calc", "odd", []NamedValue{
			{Name: "q", Value: dyn.MustStructValue(quoted, dyn.Int32Value(1))},
			{Name: "qs", Value: dyn.MustSequenceValue(quoted, dyn.MustStructValue(quoted, dyn.Int32Value(2)))},
		}},
	}
	for _, c := range cases {
		got, err := BuildRequest(c.ns, c.method, c.params)
		if err != nil {
			t.Fatalf("BuildRequest(%s.%s): %v", c.ns, c.method, err)
		}
		call := NewNode("m:" + c.method)
		call.Attrs["xmlns:m"] = c.ns
		for _, p := range c.params {
			pn, err := oracleEncodeValue(p.Name, p.Value)
			if err != nil {
				t.Fatal(err)
			}
			call.Append(pn)
		}
		want := nodeEnvelope(call).Render()
		if got != want {
			t.Errorf("BuildRequest(%s.%s) diverged from node render:\n got: %s\nwant: %s", c.ns, c.method, got, want)
		}
		if req, err := ParseRequest([]byte(got)); err != nil || len(req.Params) != len(c.params) {
			t.Errorf("BuildRequest(%s.%s) does not parse back: %d parameters, %v", c.ns, c.method, len(req.Params), err)
		}
	}
}

func TestBuildResponseMatchesNodeRender(t *testing.T) {
	for _, c := range []struct {
		method string
		result dyn.Value
	}{
		{"add", dyn.Int32Value(5)},
		{"name", dyn.StringValue("")},
		{"reset", dyn.VoidValue()},
	} {
		got, err := BuildResponse("urn:Calc", c.method, c.result)
		if err != nil {
			t.Fatal(err)
		}
		resp := NewNode("m:" + c.method + "Response")
		resp.Attrs["xmlns:m"] = "urn:Calc"
		if c.result.Type().Kind() != dyn.KindVoid {
			rn, err := oracleEncodeValue("return", c.result)
			if err != nil {
				t.Fatal(err)
			}
			resp.Append(rn)
		}
		want := nodeEnvelope(resp).Render()
		if got != want {
			t.Errorf("BuildResponse(%s) diverged:\n got: %s\nwant: %s", c.method, got, want)
		}
	}
}

func TestBuildFaultMatchesNodeRender(t *testing.T) {
	f := &Fault{Code: "soap:Server", String: FaultNonExistentMethod, Detail: "method x & <y>"}
	got := BuildFault(f)
	fn := NewNode("soapenv:Fault")
	fn.Append(NewNode("faultcode")).Text = f.Code
	fn.Append(NewNode("faultstring")).Text = f.String
	fn.Append(NewNode("detail")).Text = f.Detail
	want := nodeEnvelope(fn).Render()
	if got != want {
		t.Errorf("BuildFault diverged:\n got: %s\nwant: %s", got, want)
	}
}
