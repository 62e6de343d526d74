package static

import (
	"context"
	"errors"
	"strings"
	"testing"

	"livedev/internal/dyn"
	"livedev/internal/orb"
	"livedev/internal/soap"
)

func calcOps() []Op {
	return []Op{
		{
			Name:   "add",
			Params: []dyn.Param{{Name: "a", Type: dyn.Int32T}, {Name: "b", Type: dyn.Int32T}},
			Result: dyn.Int32T,
			Fn: func(args []dyn.Value) (dyn.Value, error) {
				return dyn.Int32Value(args[0].Int32() + args[1].Int32()), nil
			},
		},
		{
			Name:   "echo",
			Params: []dyn.Param{{Name: "s", Type: dyn.StringT}},
			Result: dyn.StringT,
			Fn: func(args []dyn.Value) (dyn.Value, error) {
				return args[0], nil
			},
		},
		{
			Name: "boom",
			Fn: func([]dyn.Value) (dyn.Value, error) {
				return dyn.Value{}, errors.New("static kaboom")
			},
			Result: dyn.StringT,
		},
		{
			Name: "ping",
			Fn: func([]dyn.Value) (dyn.Value, error) {
				return dyn.VoidValue(), nil
			},
		},
	}
}

func TestStaticSOAPServer(t *testing.T) {
	s, err := NewSOAPServer("urn:Calc", calcOps())
	if err != nil {
		t.Fatal(err)
	}
	endpoint, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Endpoint() != endpoint {
		t.Error("Endpoint()")
	}

	client := &soap.Client{Endpoint: endpoint, ServiceNS: "urn:Calc"}
	got, err := client.CallContext(context.Background(), "add", []soap.NamedValue{
		{Name: "a", Value: dyn.Int32Value(20)},
		{Name: "b", Value: dyn.Int32Value(22)},
	}, dyn.Int32T)
	if err != nil || got.Int32() != 42 {
		t.Errorf("add = %v, %v", got, err)
	}

	// Void result.
	if _, err := client.CallContext(context.Background(), "ping", nil, dyn.Void); err != nil {
		t.Errorf("ping: %v", err)
	}

	// Unknown method → Non existent Method fault (static servers do not
	// run the forced-publication protocol, they just fault).
	_, err = client.CallContext(context.Background(), "ghost", nil, dyn.Int32T)
	if !soap.IsNonExistentMethod(err) {
		t.Errorf("ghost: %v", err)
	}

	// Application error.
	_, err = client.CallContext(context.Background(), "boom", nil, dyn.StringT)
	var fault *soap.Fault
	if !errors.As(err, &fault) || !strings.Contains(fault.String, "static kaboom") {
		t.Errorf("boom: %v", err)
	}

	// Arity mismatch is a fault, not a hang.
	_, err = client.CallContext(context.Background(), "add", []soap.NamedValue{{Name: "a", Value: dyn.Int32Value(1)}}, dyn.Int32T)
	if err == nil {
		t.Error("arity mismatch should fault")
	}
}

func TestStaticCORBAServer(t *testing.T) {
	s, err := NewCORBAServer("IDL:CalcModule/Calc:1.0", []byte("calc"), calcOps())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	client, err := orb.DialIOR(ref)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	addSig := dyn.MethodSig{
		Name:   "add",
		Params: []dyn.Param{{Name: "a", Type: dyn.Int32T}, {Name: "b", Type: dyn.Int32T}},
		Result: dyn.Int32T,
	}
	got, err := client.InvokeContext(context.Background(), addSig, []dyn.Value{dyn.Int32Value(40), dyn.Int32Value(2)})
	if err != nil || got.Int32() != 42 {
		t.Errorf("add = %v, %v", got, err)
	}

	// Unknown op → BAD_OPERATION.
	_, err = client.InvokeContext(context.Background(), dyn.MethodSig{Name: "ghost", Result: dyn.Int32T}, nil)
	if !errors.Is(err, orb.ErrNonExistentMethod) {
		t.Errorf("ghost: %v", err)
	}

	// Application error → AppError.
	_, err = client.InvokeContext(context.Background(), dyn.MethodSig{Name: "boom", Result: dyn.StringT}, nil)
	var appErr *orb.AppError
	if !errors.As(err, &appErr) || !strings.Contains(appErr.Message, "static kaboom") {
		t.Errorf("boom: %v", err)
	}
}

func TestOpValidation(t *testing.T) {
	if _, err := NewSOAPServer("urn:X", []Op{{Name: ""}}); err == nil {
		t.Error("unnamed op should fail")
	}
	if _, err := NewSOAPServer("urn:X", []Op{{Name: "f"}}); err == nil {
		t.Error("op without fn should fail")
	}
	dup := []Op{
		{Name: "f", Fn: func([]dyn.Value) (dyn.Value, error) { return dyn.VoidValue(), nil }},
		{Name: "f", Fn: func([]dyn.Value) (dyn.Value, error) { return dyn.VoidValue(), nil }},
	}
	if _, err := NewSOAPServer("urn:X", dup); err == nil {
		t.Error("duplicate op should fail")
	}
	if _, err := NewCORBAServer("IDL:X:1.0", nil, dup); err == nil {
		t.Error("duplicate CORBA op should fail")
	}
	if _, err := NewCORBAServer("IDL:X:1.0", nil, []Op{{Name: "f"}}); err == nil {
		t.Error("CORBA op without fn should fail")
	}

	op := Op{Name: "f", Fn: func([]dyn.Value) (dyn.Value, error) { return dyn.VoidValue(), nil }}
	if op.Sig().Result.Kind() != dyn.KindVoid {
		t.Error("nil result should normalize to void")
	}
}

func TestStaticServerCloseIdempotent(t *testing.T) {
	s, err := NewSOAPServer("urn:X", calcOps())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // close before start is a no-op
		t.Errorf("close before start: %v", err)
	}
	if _, err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}
