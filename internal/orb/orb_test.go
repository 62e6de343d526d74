package orb

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"livedev/internal/cdr"
	"livedev/internal/dyn"
	"livedev/internal/giop"
	"livedev/internal/iiop"
	"livedev/internal/ior"
)

// classTarget serves a dyn class instance under the object key "calc"
// for tests; it is the shape the SDE's CORBA Call Handler takes, minus
// gate and publisher, on the same reply builders: missing counts the
// replies that would have forced publication first.
type classTarget struct {
	in      *dyn.Instance
	missing atomic.Int64
}

func (t *classTarget) handle(_ context.Context, h giop.RequestHeader, args *cdr.Decoder, order cdr.ByteOrder) giop.Message {
	if string(h.ObjectKey) != "calc" {
		return ExceptionReply(order, h.RequestID, &giop.SystemException{RepoID: giop.RepoObjectNotExist, Minor: 1, Completed: giop.CompletedNo}, nil)
	}
	stale := func(minor uint32) giop.Message {
		t.missing.Add(1)
		return ExceptionReply(order, h.RequestID, BadOperation(minor), nil)
	}
	sig, ok := t.in.Class().Interface().Lookup(h.Operation)
	if !ok {
		return stale(1)
	}
	vals := make([]dyn.Value, len(sig.Params))
	for i, p := range sig.Params {
		var err error
		if vals[i], err = cdr.DecodeValue(args, p.Type); err != nil {
			return stale(3)
		}
	}
	if args.Remaining() > 0 {
		return stale(4)
	}
	v, err := t.in.InvokeDistributed(h.Operation, vals...)
	switch {
	case errors.Is(err, dyn.ErrNoSuchMethod), errors.Is(err, dyn.ErrSignatureMismatch):
		return stale(2)
	case err != nil:
		return AppErrorReply(order, h.RequestID, err.Error())
	}
	return ResultReply(order, h.RequestID, v)
}

func newCalcTarget(t *testing.T) (*classTarget, *dyn.Class, dyn.MemberID) {
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
	if _, err := c.AddMethod(dyn.MethodSpec{
		Name:        "fail",
		Result:      dyn.StringT,
		Distributed: true,
		Body: func(_ *dyn.Instance, _ []dyn.Value) (dyn.Value, error) {
			return dyn.Value{}, errors.New("mailbox unavailable")
		},
	}); err != nil {
		t.Fatal(err)
	}
	return &classTarget{in: c.NewInstance()}, c, id
}

// listenCalc serves target on a loopback port and returns its IOR.
func listenCalc(t *testing.T, target *classTarget) (ior.IOR, *iiop.Server) {
	t.Helper()
	srv := iiop.NewServer(iiop.HandlerFunc(target.handle))
	ref, err := Listen(srv, "127.0.0.1:0", "IDL:CalcModule/Calc:1.0", []byte("calc"))
	if err != nil {
		t.Fatal(err)
	}
	return ref, srv
}

func startORB(t *testing.T, target *classTarget) (*ClientORB, func()) {
	t.Helper()
	ref, s := listenCalc(t, target)
	cl, err := DialIOR(ref)
	if err != nil {
		_ = s.Close()
		t.Fatal(err)
	}
	return cl, func() {
		_ = cl.Close()
		_ = s.Close()
	}
}

func addSig() dyn.MethodSig {
	return dyn.MethodSig{
		Name:   "add",
		Params: []dyn.Param{{Name: "a", Type: dyn.Int32T}, {Name: "b", Type: dyn.Int32T}},
		Result: dyn.Int32T,
	}
}

func TestInvokeSuccess(t *testing.T) {
	target, _, _ := newCalcTarget(t)
	cl, stop := startORB(t, target)
	defer stop()

	if cl.TypeID() != "IDL:CalcModule/Calc:1.0" {
		t.Errorf("TypeID = %q", cl.TypeID())
	}
	got, err := cl.InvokeContext(context.Background(), addSig(), []dyn.Value{dyn.Int32Value(20), dyn.Int32Value(22)})
	if err != nil {
		t.Fatal(err)
	}
	if got.Int32() != 42 {
		t.Errorf("add = %v", got)
	}
}

func TestInvokeNonExistentMethod(t *testing.T) {
	target, _, _ := newCalcTarget(t)
	cl, stop := startORB(t, target)
	defer stop()

	sig := dyn.MethodSig{Name: "ghost", Result: dyn.Int32T}
	_, err := cl.InvokeContext(context.Background(), sig, nil)
	if !errors.Is(err, ErrNonExistentMethod) {
		t.Fatalf("ghost: %v", err)
	}
	// The missing-operation hook (forced publication point) fired first.
	if target.missing.Load() != 1 {
		t.Errorf("OperationMissing calls = %d", target.missing.Load())
	}
	// The underlying system exception is preserved in the chain.
	var se *giop.SystemException
	if !errors.As(err, &se) || se.RepoID != giop.RepoBadOperation {
		t.Error("BAD_OPERATION should be in the error chain")
	}
}

func TestInvokeAfterLiveRemoval(t *testing.T) {
	target, c, id := newCalcTarget(t)
	cl, stop := startORB(t, target)
	defer stop()

	if _, err := cl.InvokeContext(context.Background(), addSig(), []dyn.Value{dyn.Int32Value(1), dyn.Int32Value(2)}); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveMethod(id); err != nil {
		t.Fatal(err)
	}
	_, err := cl.InvokeContext(context.Background(), addSig(), []dyn.Value{dyn.Int32Value(1), dyn.Int32Value(2)})
	if !errors.Is(err, ErrNonExistentMethod) {
		t.Fatalf("after removal: %v", err)
	}
}

func TestInvokeApplicationError(t *testing.T) {
	target, _, _ := newCalcTarget(t)
	cl, stop := startORB(t, target)
	defer stop()

	_, err := cl.InvokeContext(context.Background(), dyn.MethodSig{Name: "fail", Result: dyn.StringT}, nil)
	var appErr *AppError
	if !errors.As(err, &appErr) {
		t.Fatalf("fail: %v", err)
	}
	if appErr.Message != "mailbox unavailable" {
		t.Errorf("message = %q", appErr.Message)
	}
	if appErr.Error() == "" {
		t.Error("Error() empty")
	}
}

func TestInvokeClientSideTypeChecks(t *testing.T) {
	target, _, _ := newCalcTarget(t)
	cl, stop := startORB(t, target)
	defer stop()

	if _, err := cl.InvokeContext(context.Background(), addSig(), []dyn.Value{dyn.Int32Value(1)}); err == nil {
		t.Error("wrong arity should fail client-side")
	}
	if _, err := cl.InvokeContext(context.Background(), addSig(), []dyn.Value{dyn.Int32Value(1), dyn.StringValue("x")}); err == nil {
		t.Error("wrong type should fail client-side")
	}
}

func TestWrongObjectKey(t *testing.T) {
	target, _, _ := newCalcTarget(t)
	ref, s := listenCalc(t, target)
	defer s.Close()

	// Corrupt the object key.
	ref.Profiles[0].ObjectKey = []byte("wrong")
	cl, err := DialIOR(ref)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	_, err = cl.InvokeContext(context.Background(), addSig(), []dyn.Value{dyn.Int32Value(1), dyn.Int32Value(2)})
	var se *giop.SystemException
	if !errors.As(err, &se) || se.RepoID != giop.RepoObjectNotExist {
		t.Errorf("wrong key: %v", err)
	}
}

// Stale client signature: the client believes add takes one string while
// the server's live signature is (int32, int32). Per Section 5.6 ("Client
// calls for stale method signatures may also trigger updates"), the server
// must treat undecodable or leftover arguments as a stale call: run the
// forced-publication hook and reply Non Existent Method.
func TestStaleSignatureTreatedAsStaleCall(t *testing.T) {
	target, _, _ := newCalcTarget(t)
	cl, stop := startORB(t, target)
	defer stop()

	staleSig := dyn.MethodSig{
		Name:   "add",
		Params: []dyn.Param{{Name: "s", Type: dyn.StringT}},
		Result: dyn.Int32T,
	}
	_, err := cl.InvokeContext(context.Background(), staleSig, []dyn.Value{dyn.StringValue("xy")})
	if !errors.Is(err, ErrNonExistentMethod) {
		t.Fatalf("stale signature: %v", err)
	}
	if target.missing.Load() != 1 {
		t.Errorf("OperationMissing calls = %d, want 1", target.missing.Load())
	}

	// The reverse direction: the stale signature has MORE arguments than
	// the live one (extra octets remain after decoding).
	staleWide := dyn.MethodSig{
		Name: "add",
		Params: []dyn.Param{
			{Name: "a", Type: dyn.Int32T}, {Name: "b", Type: dyn.Int32T}, {Name: "c", Type: dyn.Int32T},
		},
		Result: dyn.Int32T,
	}
	_, err = cl.InvokeContext(context.Background(), staleWide, []dyn.Value{dyn.Int32Value(1), dyn.Int32Value(2), dyn.Int32Value(3)})
	if !errors.Is(err, ErrNonExistentMethod) {
		t.Fatalf("extra-args stale signature: %v", err)
	}
	if target.missing.Load() != 2 {
		t.Errorf("OperationMissing calls = %d, want 2", target.missing.Load())
	}
}

func TestConcurrentInvocations(t *testing.T) {
	target, _, _ := newCalcTarget(t)
	cl, stop := startORB(t, target)
	defer stop()

	var wg sync.WaitGroup
	for i := int32(0); i < 16; i++ {
		wg.Add(1)
		go func(n int32) {
			defer wg.Done()
			got, err := cl.InvokeContext(context.Background(), addSig(), []dyn.Value{dyn.Int32Value(n), dyn.Int32Value(n)})
			if err != nil {
				t.Errorf("invoke %d: %v", n, err)
				return
			}
			if got.Int32() != 2*n {
				t.Errorf("add(%d,%d) = %v", n, n, got)
			}
		}(i)
	}
	wg.Wait()
}

func TestVoidResult(t *testing.T) {
	c := dyn.NewClass("Svc")
	pinged := make(chan struct{}, 1)
	if _, err := c.AddMethod(dyn.MethodSpec{
		Name:        "ping",
		Distributed: true,
		Body: func(_ *dyn.Instance, _ []dyn.Value) (dyn.Value, error) {
			pinged <- struct{}{}
			return dyn.VoidValue(), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	target := &classTarget{in: c.NewInstance()}
	cl, stop := startORB(t, target)
	defer stop()

	got, err := cl.InvokeContext(context.Background(), dyn.MethodSig{Name: "ping", Result: dyn.Void}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsVoid() {
		t.Errorf("result = %v", got)
	}
	<-pinged
}

func TestDialIORErrors(t *testing.T) {
	// No IIOP profile.
	if _, err := DialIOR(ior.IOR{}); err == nil {
		t.Error("IOR without profiles should fail")
	}
	// Unreachable endpoint.
	if _, err := DialIOR(ior.New("IDL:X:1.0", "127.0.0.1", 1, nil)); err == nil {
		t.Error("unreachable endpoint should fail")
	}
}
