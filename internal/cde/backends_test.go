package cde

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"livedev/internal/cdr"
	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/giop"
	"livedev/internal/idl"
	"livedev/internal/ifsvr"
	"livedev/internal/iiop"
	"livedev/internal/ior"
	"livedev/internal/orb"
	"livedev/internal/wsdl"
)

// startIfsvr publishes the given documents and returns the base URL.
func startIfsvr(t *testing.T, docs map[string]string) string {
	t.Helper()
	st := ifsvr.NewStore(0, nil)
	for path, content := range docs {
		st.Publish(path, "text/plain", content)
	}
	s := ifsvr.NewView(st)
	base, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = s.Close()
		st.Close()
	})
	return base
}

func validWSDL(t *testing.T) string {
	t.Helper()
	c := dyn.NewClass("Svc")
	if _, err := c.AddMethod(dyn.MethodSpec{Name: "op", Result: dyn.Int32T, Distributed: true}); err != nil {
		t.Fatal(err)
	}
	text, err := wsdl.Generate(c.Interface(), "http://127.0.0.1:1/Svc").XML()
	if err != nil {
		t.Fatal(err)
	}
	return text
}

func TestSOAPBackendFetchFailures(t *testing.T) {
	// Unreachable interface server.
	if _, err := Dial(context.Background(), "http://127.0.0.1:1/wsdl", &DialOptions{Binding: "SOAP"}); err == nil {
		t.Error("unreachable WSDL URL should fail")
	}
	// 404.
	base := startIfsvr(t, nil)
	if _, err := Dial(context.Background(), base+"/missing.wsdl", &DialOptions{Binding: "SOAP"}); err == nil {
		t.Error("missing WSDL should fail")
	}
	// Unparseable WSDL.
	base2 := startIfsvr(t, map[string]string{"/bad.wsdl": "<not-wsdl/>"})
	if _, err := Dial(context.Background(), base2+"/bad.wsdl", &DialOptions{Binding: "SOAP"}); err == nil {
		t.Error("non-WSDL document should fail")
	}
}

func TestSOAPBackendEndpointUnreachable(t *testing.T) {
	// Valid WSDL advertising a dead endpoint: construction succeeds (the
	// interface is compiled), calls fail cleanly.
	base := startIfsvr(t, map[string]string{"/svc.wsdl": validWSDL(t)})
	client, err := Dial(context.Background(), base+"/svc.wsdl", &DialOptions{Binding: "SOAP"})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.CallContext(context.Background(), "op"); err == nil {
		t.Error("call to a dead endpoint should fail")
	}
}

func TestSOAPBackendArgChecks(t *testing.T) {
	base := startIfsvr(t, map[string]string{"/svc.wsdl": validWSDL(t)})
	client, err := Dial(context.Background(), base+"/svc.wsdl", &DialOptions{Binding: "SOAP"})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// Arity is checked client-side before any network traffic.
	if _, err := client.CallContext(context.Background(), "op", dyn.Int32Value(1)); err == nil {
		t.Error("arity mismatch should fail client-side")
	}
}

func TestSOAPBackendInvokeBeforeFetch(t *testing.T) {
	seed := &ifsvr.Document{Content: validWSDL(t), Version: 1}
	c, err := connect(context.Background(), NewDocSource("http://unused/", nil, seed), soapBinding(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Technology() != "SOAP" {
		t.Error("Technology")
	}
	if err := c.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

// taggedCaller answers every call with its tag.
type taggedCaller string

func (c taggedCaller) Call(context.Context, dyn.MethodSig, []dyn.Value) (dyn.Value, error) {
	return dyn.StringValue(string(c)), nil
}

// TestDroppedViewKeepsCaller: a document the client drops, being older
// than its view, does not retarget calls at the endpoint it advertises.
func TestDroppedViewKeepsCaller(t *testing.T) {
	doc := func(v uint64) *ifsvr.Document {
		return &ifsvr.Document{Content: "op", Version: v, Epoch: v, Generation: 1}
	}
	c, err := connect(context.Background(), NewDocSource("http://unused/", nil, doc(2)), DocBinding{
		Technology: "TAGGED",
		Compile: func(d ifsvr.Document) (dyn.InterfaceDescriptor, Caller, error) {
			return descWith(d.Content), taggedCaller("v" + strconv.FormatUint(d.Version, 10)), nil
		},
		IsStale: func(error) bool { return false },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.docs = NewDocSource("http://unused/", nil, doc(1))
	if err := c.Refresh(); err != nil {
		t.Fatal(err)
	}
	if v := c.Versions().Doc; v != 2 {
		t.Fatalf("view at v%d after v1 was offered, want v2 kept", v)
	}
	if got, err := c.CallContext(context.Background(), "op"); err != nil || got.Str() != "v2" {
		t.Errorf("call answered by %v (%v), want v2's caller", got, err)
	}
}

func TestCORBABackendFetchFailures(t *testing.T) {
	// Missing IOR document.
	base := startIfsvr(t, nil)
	if _, err := Dial(context.Background(), base+"/x.idl", &DialOptions{Binding: "CORBA", AuxURL: base + "/x.ior"}); err == nil {
		t.Error("missing IOR should fail")
	}
	// Unparseable IOR.
	base2 := startIfsvr(t, map[string]string{"/x.ior": "garbage"})
	if _, err := Dial(context.Background(), base2+"/x.idl", &DialOptions{Binding: "CORBA", AuxURL: base2 + "/x.ior"}); err == nil {
		t.Error("garbage IOR should fail")
	}
	// IOR with a bad repository id.
	badID := ior.New("NOPREFIX", "127.0.0.1", 1, []byte("k"))
	base3 := startIfsvr(t, map[string]string{"/x.ior": badID.String()})
	if _, err := Dial(context.Background(), base3+"/x.idl", &DialOptions{Binding: "CORBA", AuxURL: base3 + "/x.ior"}); err == nil {
		t.Error("bad repository id should fail")
	}
	// IOR pointing at a dead endpoint.
	deadRef := ior.New("IDL:Mod/Svc:1.0", "127.0.0.1", 1, []byte("k"))
	base4 := startIfsvr(t, map[string]string{"/x.ior": deadRef.String()})
	if _, err := Dial(context.Background(), base4+"/x.idl", &DialOptions{Binding: "CORBA", AuxURL: base4 + "/x.ior"}); err == nil {
		t.Error("dead ORB endpoint should fail")
	}
}

func TestCORBABackendIDLFailures(t *testing.T) {
	// A live ORB endpoint but broken IDL documents.
	class := dyn.NewClass("Svc")
	if _, err := class.AddMethod(dyn.MethodSpec{Name: "op", Result: dyn.Int32T, Distributed: true}); err != nil {
		t.Fatal(err)
	}
	target := &testTarget{in: class.NewInstance()}
	srv := iiop.NewServer(iiop.HandlerFunc(target.handle))
	ref, err := orb.Listen(srv, "127.0.0.1:0", "IDL:SvcModule/Svc:1.0", []byte("svc"))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// IDL missing entirely.
	base := startIfsvr(t, map[string]string{"/svc.ior": ref.String()})
	if _, err := Dial(context.Background(), base+"/svc.idl", &DialOptions{Binding: "CORBA", AuxURL: base + "/svc.ior"}); err == nil {
		t.Error("missing IDL should fail")
	}

	// IDL that does not parse.
	base2 := startIfsvr(t, map[string]string{
		"/svc.ior": ref.String(),
		"/svc.idl": "not idl at all {",
	})
	if _, err := Dial(context.Background(), base2+"/svc.idl", &DialOptions{Binding: "CORBA", AuxURL: base2 + "/svc.ior"}); err == nil {
		t.Error("unparseable IDL should fail")
	}

	// IDL whose module lacks the interface the IOR names.
	base3 := startIfsvr(t, map[string]string{
		"/svc.ior": ref.String(),
		"/svc.idl": "module SvcModule { interface Other { void f(); }; };",
	})
	if _, err := Dial(context.Background(), base3+"/svc.idl", &DialOptions{Binding: "CORBA", AuxURL: base3 + "/svc.ior"}); err == nil {
		t.Error("interface mismatch should fail")
	}

	// A correct document set works.
	doc, err := idl.Generate(class.Interface())
	if err != nil {
		t.Fatal(err)
	}
	base4 := startIfsvr(t, map[string]string{
		"/svc.ior": ref.String(),
		"/svc.idl": idl.Print(doc),
	})
	client, err := Dial(context.Background(), base4+"/svc.idl", &DialOptions{Binding: "CORBA", AuxURL: base4 + "/svc.ior"})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.CallContext(context.Background(), "op"); err != nil {
		t.Errorf("valid setup should call: %v", err)
	}
}

func TestCORBABackendInvokeBeforeConnect(t *testing.T) {
	stub := &corbaStub{iorDocs: NewDocSource("http://unused/", nil, nil)}
	if _, err := stub.Call(context.Background(), dyn.MethodSig{Name: "x"}, nil); err == nil {
		t.Error("invoke before connect should fail")
	}
	b := corbaBinding(NewDocSource("http://unused/", nil, nil))
	if b.Technology != "CORBA" {
		t.Error("Technology")
	}
	if err := b.Close(); err != nil {
		t.Errorf("close before connect: %v", err)
	}
}

// TestClosedClientStaysClosed: after Close, a call and a refresh fail, and
// the CORBA stub takes no pooled IIOP connection again — nothing would
// ever release it.
func TestClosedClientStaysClosed(t *testing.T) {
	mgr, err := core.NewManager(core.Config{Timeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mgr.Close() }()
	srv, err := mgr.Register(calcClass(t, 0), core.TechCORBA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	conns, refs := IIOPPoolStats()
	c, err := Dial(ctx, srv.InterfaceURL(), &DialOptions{Binding: "CORBA"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CallContext(ctx, "op"); err != nil {
		t.Fatalf("call before close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if v, err := c.CallContext(ctx, "op"); err == nil {
		t.Errorf("call after close returned %v", v)
	}
	if err := c.Refresh(); err == nil {
		t.Error("refresh after close succeeded")
	}
	if gc, gr := IIOPPoolStats(); gc != conns || gr != refs {
		t.Errorf("IIOP pool at conns=%d refs=%d after close, want conns=%d refs=%d as before the dial", gc, gr, conns, refs)
	}
}

// testTarget is a minimal CORBA servant for the failure-injection tests,
// on the ORB's reply builders.
type testTarget struct{ in *dyn.Instance }

func (t *testTarget) handle(_ context.Context, h giop.RequestHeader, args *cdr.Decoder, order cdr.ByteOrder) giop.Message {
	if string(h.ObjectKey) != "svc" {
		return orb.ExceptionReply(order, h.RequestID, &giop.SystemException{RepoID: giop.RepoObjectNotExist, Minor: 1, Completed: giop.CompletedNo}, nil)
	}
	sig, ok := t.in.Class().Interface().Lookup(h.Operation)
	if !ok {
		return orb.ExceptionReply(order, h.RequestID, orb.BadOperation(1), nil)
	}
	if len(sig.Params) != 0 || args.Remaining() > 0 {
		return orb.ExceptionReply(order, h.RequestID, orb.BadOperation(3), nil) // the injected operations take no arguments
	}
	v, err := t.in.InvokeDistributed(h.Operation)
	if err != nil && errors.Is(err, dyn.ErrNoBody) && strings.HasPrefix(h.Operation, "op") {
		// The failure-injection class has no bodies; answer statically so
		// the happy-path assertion can pass.
		v, err = dyn.Int32Value(7), nil
	}
	if err != nil {
		return orb.AppErrorReply(order, h.RequestID, err.Error())
	}
	return orb.ResultReply(order, h.RequestID, v)
}
