package livedev_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"livedev"
)

// TestFacadeEndToEnd exercises the public API surface the README's
// quickstart shows: class definition, manager registration, SOAP and CORBA
// service, live edits, and stale-call recovery — all through the livedev
// package alone.
func TestFacadeEndToEnd(t *testing.T) {
	point := livedev.MustStructOf("Point",
		livedev.StructField{Name: "x", Type: livedev.Float64Type},
		livedev.StructField{Name: "y", Type: livedev.Float64Type})

	geo := livedev.NewClass("Geo")
	midID, err := geo.AddMethod(livedev.MethodSpec{
		Name:        "midpoint",
		Params:      []livedev.Param{{Name: "a", Type: point}, {Name: "b", Type: point}},
		Result:      point,
		Distributed: true,
		Body: func(_ *livedev.Instance, args []livedev.Value) (livedev.Value, error) {
			ax, _ := args[0].Field("x")
			ay, _ := args[0].Field("y")
			bx, _ := args[1].Field("x")
			by, _ := args[1].Field("y")
			return livedev.Struct(point,
				livedev.Float64((ax.Float64()+bx.Float64())/2),
				livedev.Float64((ay.Float64()+by.Float64())/2))
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	mgr, err := livedev.NewManager(livedev.Config{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	srv, err := mgr.Register(geo, livedev.TechSOAP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}

	client, err := livedev.Dial(context.Background(), srv.InterfaceURL())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	a, err := livedev.Struct(point, livedev.Float64(0), livedev.Float64(0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := livedev.Struct(point, livedev.Float64(4), livedev.Float64(2))
	if err != nil {
		t.Fatal(err)
	}
	mid, err := client.CallContext(context.Background(), "midpoint", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if x, _ := mid.Field("x"); x.Float64() != 2 {
		t.Errorf("midpoint.x = %v", x)
	}
	if y, _ := mid.Field("y"); y.Float64() != 1 {
		t.Errorf("midpoint.y = %v", y)
	}

	// Live rename + stale recovery through the facade's sentinel.
	if err := geo.RenameMethod(midID, "center"); err != nil {
		t.Fatal(err)
	}
	_, err = client.CallContext(context.Background(), "midpoint", a, b)
	if !errors.Is(err, livedev.ErrStaleMethod) {
		t.Fatalf("stale call: %v", err)
	}
	var stale *livedev.StaleMethodError
	if !errors.As(err, &stale) || stale.Method != "midpoint" {
		t.Fatalf("stale error shape: %v", err)
	}
	if _, err := client.CallContext(context.Background(), "center", a, b); err != nil {
		t.Errorf("call under new name: %v", err)
	}
}

// TestFacadeValueConstructors covers the re-exported constructors.
func TestFacadeValueConstructors(t *testing.T) {
	if !livedev.Bool(true).Bool() || livedev.Char('x').Char() != 'x' ||
		livedev.Int32(1).Int32() != 1 || livedev.Int64(2).Int64() != 2 ||
		livedev.Float32(1.5).Float32() != 1.5 || livedev.Float64(2.5).Float64() != 2.5 ||
		livedev.Str("s").Str() != "s" || !livedev.Void().IsVoid() {
		t.Error("value constructors broken")
	}
	seq, err := livedev.Sequence(livedev.Int32Type, livedev.Int32(1))
	if err != nil || seq.Len() != 1 {
		t.Errorf("Sequence = %v, %v", seq, err)
	}
	if _, err := livedev.StructOf(""); err == nil {
		t.Error("StructOf should validate")
	}
	if livedev.SequenceOf(livedev.StringType).Elem() != livedev.StringType {
		t.Error("SequenceOf")
	}
}

// TestFacadeCORBA covers the CORBA direction through the facade.
func TestFacadeCORBA(t *testing.T) {
	ping := livedev.NewClass("Ping")
	if _, err := ping.AddMethod(livedev.MethodSpec{
		Name:        "ping",
		Result:      livedev.StringType,
		Distributed: true,
		Body: func(*livedev.Instance, []livedev.Value) (livedev.Value, error) {
			return livedev.Str("pong"), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	mgr, err := livedev.NewManager(livedev.Config{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	srv, err := mgr.Register(ping, livedev.TechCORBA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	// A CORBA server's Endpoint is the URL its IOR is published at.
	client, err := livedev.Dial(context.Background(), srv.InterfaceURL(), livedev.WithAuxURL(srv.Endpoint()))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	v, err := client.CallContext(context.Background(), "ping")
	if err != nil || v.Str() != "pong" {
		t.Errorf("ping = %v, %v", v, err)
	}
}
