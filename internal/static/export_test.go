package static

import (
	"context"
	"errors"
	"testing"

	"livedev/internal/dyn"
	"livedev/internal/orb"
	"livedev/internal/soap"
)

func newLiveCalc(t *testing.T) (*dyn.Instance, dyn.MemberID) {
	t.Helper()
	c := dyn.NewClass("Calc")
	id, err := c.AddMethod(dyn.MethodSpec{
		Name:        "add",
		Params:      []dyn.Param{{Name: "a", Type: dyn.Int32T}, {Name: "b", Type: dyn.Int32T}},
		Result:      dyn.Int32T,
		Distributed: true,
		Body: func(_ *dyn.Instance, args []dyn.Value) (dyn.Value, error) {
			return dyn.Int32Value(args[0].Int32() + args[1].Int32()), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A non-distributed helper must not be exported.
	if _, err := c.AddMethod(dyn.MethodSpec{Name: "helper", Result: dyn.Int32T}); err != nil {
		t.Fatal(err)
	}
	return c.NewInstance(), id
}

func TestExportFreezesInterface(t *testing.T) {
	in, id := newLiveCalc(t)
	ops, err := Export(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 || ops[0].Name != "add" {
		t.Fatalf("ops = %+v", ops)
	}

	// Exported dispatch works.
	got, err := ops[0].Fn([]dyn.Value{dyn.Int32Value(2), dyn.Int32Value(3)})
	if err != nil || got.Int32() != 5 {
		t.Errorf("exported add = %v, %v", got, err)
	}

	// Renaming the dynamic method after export breaks the frozen stub —
	// by design: the exported server is static.
	if err := in.Class().RenameMethod(id, "plus"); err != nil {
		t.Fatal(err)
	}
	if _, err := ops[0].Fn([]dyn.Value{dyn.Int32Value(2), dyn.Int32Value(3)}); !errors.Is(err, dyn.ErrNoSuchMethod) {
		t.Errorf("frozen stub after rename: %v", err)
	}
}

func TestExportNil(t *testing.T) {
	if _, err := Export(nil); err == nil {
		t.Error("Export(nil) should fail")
	}
	if _, err := ExportSOAP(nil); err == nil {
		t.Error("ExportSOAP(nil) should fail")
	}
	if _, err := ExportCORBA(nil); err == nil {
		t.Error("ExportCORBA(nil) should fail")
	}
}

func TestExportSOAPServesCalls(t *testing.T) {
	in, _ := newLiveCalc(t)
	srv, err := ExportSOAP(in)
	if err != nil {
		t.Fatal(err)
	}
	endpoint, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := &soap.Client{Endpoint: endpoint, ServiceNS: "urn:Calc"}
	got, err := client.CallContext(context.Background(), "add", []soap.NamedValue{
		{Name: "a", Value: dyn.Int32Value(40)},
		{Name: "b", Value: dyn.Int32Value(2)},
	}, dyn.Int32T)
	if err != nil || got.Int32() != 42 {
		t.Errorf("exported SOAP add = %v, %v", got, err)
	}
	// The helper was not exported.
	if _, err := client.CallContext(context.Background(), "helper", nil, dyn.Int32T); !soap.IsNonExistentMethod(err) {
		t.Errorf("helper should not be exported: %v", err)
	}
}

func TestExportCORBAServesCalls(t *testing.T) {
	in, _ := newLiveCalc(t)
	srv, err := ExportCORBA(in)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if ref.TypeID != "IDL:CalcModule/Calc:1.0" {
		t.Errorf("exported type id = %q", ref.TypeID)
	}

	conn, err := orb.DialIOR(ref)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sig := dyn.MethodSig{
		Name:   "add",
		Params: []dyn.Param{{Name: "a", Type: dyn.Int32T}, {Name: "b", Type: dyn.Int32T}},
		Result: dyn.Int32T,
	}
	got, err := conn.InvokeContext(context.Background(), sig, []dyn.Value{dyn.Int32Value(20), dyn.Int32Value(22)})
	if err != nil || got.Int32() != 42 {
		t.Errorf("exported CORBA add = %v, %v", got, err)
	}
}
