package orb

import (
	"context"
	"errors"
	"testing"

	"livedev/internal/cdr"
	"livedev/internal/dyn"
	"livedev/internal/giop"
	"livedev/internal/iiop"
)

// TestClientEncodeErrorFailsLocally: an argument the CDR mapping rejects
// (a wide char) fails before anything is sent.
func TestClientEncodeErrorFailsLocally(t *testing.T) {
	target, _, _ := newCalcTarget(t)
	cl, stop := startORB(t, target)
	defer stop()

	sig := dyn.MethodSig{
		Name:   "add",
		Params: []dyn.Param{{Name: "c", Type: dyn.Char}, {Name: "b", Type: dyn.Int32T}},
		Result: dyn.Int32T,
	}
	_, err := cl.InvokeContext(context.Background(), sig, []dyn.Value{dyn.CharValue('λ'), dyn.Int32Value(1)})
	if err == nil {
		t.Fatal("wide char should fail to encode")
	}
	// Nothing reached the server's missing-operation hook.
	if target.missing.Load() != 0 {
		t.Error("encode failure must not reach the server")
	}
}

// TestClientRejectsUnknownUserException: a user exception with an
// unexpected repository id is surfaced as an error, not silently decoded.
func TestClientRejectsUnknownUserException(t *testing.T) {
	h := iiop.HandlerFunc(func(_ context.Context, rh giop.RequestHeader, _ *cdr.Decoder, order cdr.ByteOrder) giop.Message {
		msg, _ := giop.EncodeReply(order, giop.ReplyHeader{RequestID: rh.RequestID, Status: giop.ReplyUserException},
			func(e *cdr.Encoder) error {
				e.WriteString("IDL:Custom/Weird:1.0")
				return nil
			})
		return msg
	})
	srv := iiop.NewServer(h)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl := &ClientORB{}
	conn, err := iiop.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	cl.conn = conn
	cl.order = cdr.BigEndian
	defer cl.Close()

	_, err = cl.InvokeContext(context.Background(), dyn.MethodSig{Name: "x", Result: dyn.Int32T}, nil)
	if err == nil {
		t.Fatal("unknown user exception should error")
	}
	var appErr *AppError
	if errors.As(err, &appErr) {
		t.Error("unknown repo id must not decode as AppError")
	}
}

// TestClientRejectsUnsupportedReplyStatus: LOCATION_FORWARD is not
// implemented; the client reports it instead of misinterpreting the body.
func TestClientRejectsUnsupportedReplyStatus(t *testing.T) {
	h := iiop.HandlerFunc(func(_ context.Context, rh giop.RequestHeader, _ *cdr.Decoder, order cdr.ByteOrder) giop.Message {
		msg, _ := giop.EncodeReply(order, giop.ReplyHeader{RequestID: rh.RequestID, Status: giop.ReplyLocationForward}, nil)
		return msg
	})
	srv := iiop.NewServer(h)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := iiop.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	cl := &ClientORB{conn: conn, order: cdr.BigEndian}
	defer cl.Close()

	if _, err := cl.InvokeContext(context.Background(), dyn.MethodSig{Name: "x", Result: dyn.Int32T}, nil); err == nil {
		t.Fatal("LOCATION_FORWARD should be reported as unsupported")
	}
}

// TestClientRejectsTruncatedResult: a NO_EXCEPTION reply whose body does
// not decode to the declared result type fails cleanly.
func TestClientRejectsTruncatedResult(t *testing.T) {
	h := iiop.HandlerFunc(func(_ context.Context, rh giop.RequestHeader, _ *cdr.Decoder, order cdr.ByteOrder) giop.Message {
		msg, _ := giop.EncodeReply(order, giop.ReplyHeader{RequestID: rh.RequestID, Status: giop.ReplyNoException},
			func(e *cdr.Encoder) error {
				e.WriteOctet(1) // not a valid int64
				return nil
			})
		return msg
	})
	srv := iiop.NewServer(h)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := iiop.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	cl := &ClientORB{conn: conn, order: cdr.BigEndian}
	defer cl.Close()

	if _, err := cl.InvokeContext(context.Background(), dyn.MethodSig{Name: "x", Result: dyn.Int64T}, nil); err == nil {
		t.Fatal("truncated result should fail")
	}
}

// TestServerEncodesResultFailure: a body returning a value the CDR mapping
// rejects (wide char) is reported as MARSHAL, not dropped.
func TestServerEncodesResultFailure(t *testing.T) {
	c := dyn.NewClass("Wide")
	if _, err := c.AddMethod(dyn.MethodSpec{
		Name:        "wide",
		Result:      dyn.Char,
		Distributed: true,
		Body: func(*dyn.Instance, []dyn.Value) (dyn.Value, error) {
			return dyn.CharValue('λ'), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	target := &classTarget{in: c.NewInstance()}
	cl, stop := startORB(t, target)
	defer stop()

	_, err := cl.InvokeContext(context.Background(), dyn.MethodSig{Name: "wide", Result: dyn.Char}, nil)
	var se *giop.SystemException
	if !errors.As(err, &se) || se.RepoID != giop.RepoMarshal {
		t.Errorf("wide result: %v", err)
	}
}

// TestClientReadsCarriedDocument: a BAD_OPERATION reply's document context
// reaches the client as StaleError.Interface, counters and text intact; a
// malformed one is dropped — the reply still means "non-existent method",
// and the client falls back to fetching the document.
func TestClientReadsCarriedDocument(t *testing.T) {
	doc := giop.DocContext{Version: 4, DescriptorVersion: 9, Epoch: 17, Generation: 99, Text: "interface Calc {};"}
	for name, contexts := range map[string][]giop.ServiceContext{
		"well formed":   {{ID: 0xBEEF, Data: []byte{1}}, doc.Context(cdr.LittleEndian)},
		"malformed":     {{ID: giop.DocContextID, Data: append(doc.Context(cdr.BigEndian).Data, 0)}},
		"without a doc": nil,
	} {
		t.Run(name, func(t *testing.T) {
			h := iiop.HandlerFunc(func(_ context.Context, rh giop.RequestHeader, _ *cdr.Decoder, order cdr.ByteOrder) giop.Message {
				msg, _ := giop.EncodeReply(order, giop.ReplyHeader{Contexts: contexts, RequestID: rh.RequestID, Status: giop.ReplySystemException},
					BadOperation(1).Encode)
				return msg
			})
			srv := iiop.NewServer(h)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			conn, err := iiop.Dial(addr.String())
			if err != nil {
				t.Fatal(err)
			}
			cl := &ClientORB{conn: conn, order: cdr.BigEndian}
			defer cl.Close()

			_, err = cl.InvokeContext(context.Background(), dyn.MethodSig{Name: "gone", Result: dyn.Int32T}, nil)
			var stale *StaleError
			if !errors.Is(err, ErrNonExistentMethod) || !errors.As(err, &stale) || stale.Exception.RepoID != giop.RepoBadOperation {
				t.Fatalf("stale reply = %v", err)
			}
			switch got := stale.Interface; {
			case name != "well formed":
				if got != nil {
					t.Errorf("carried %+v", got)
				}
			case got == nil || got.Content != doc.Text || got.Version != doc.Version || got.DescriptorVersion != doc.DescriptorVersion ||
				got.Epoch != doc.Epoch || got.Generation != doc.Generation:
				t.Errorf("carried %+v, want %+v", got, doc)
			}
		})
	}
}
