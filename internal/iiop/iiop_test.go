package iiop

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"livedev/internal/cdr"
	"livedev/internal/giop"
)

// invoke is InvokeInto with the reply read out: the reply header, and a
// decoder over a copy of the body, positioned where InvokeInto's was (so
// CDR alignment is unchanged), which stays valid after the call.
func invoke(ctx context.Context, conn *Conn, objectKey []byte, operation string, order cdr.ByteOrder, args func(*cdr.Encoder) error) (giop.ReplyHeader, *cdr.Decoder, error) {
	var (
		hdr  giop.ReplyHeader
		body *cdr.Decoder
	)
	err := conn.InvokeInto(ctx, objectKey, operation, order, args, func(h giop.ReplyHeader, d *cdr.Decoder) error {
		pos := d.Pos()
		rest, err := d.ReadOctets(d.Remaining())
		if err != nil {
			return err
		}
		hdr, body = h, cdr.NewDecoder(append(make([]byte, pos), rest...), d.Order())
		_, err = body.ReadOctets(pos)
		return err
	})
	return hdr, body, err
}

// echoHandler replies with the request's string argument, doubled, and
// status NO_EXCEPTION; unknown operations get BAD_OPERATION.
func echoHandler() Handler {
	return HandlerFunc(func(_ context.Context, h giop.RequestHeader, args *cdr.Decoder, order cdr.ByteOrder) giop.Message {
		if h.Operation != "echo" {
			se := &giop.SystemException{RepoID: giop.RepoBadOperation, Minor: 1, Completed: giop.CompletedNo}
			msg, _ := giop.EncodeReply(order, giop.ReplyHeader{RequestID: h.RequestID, Status: giop.ReplySystemException}, se.Encode)
			return msg
		}
		s, err := args.ReadString()
		if err != nil {
			se := &giop.SystemException{RepoID: giop.RepoMarshal, Minor: 1, Completed: giop.CompletedNo}
			msg, _ := giop.EncodeReply(order, giop.ReplyHeader{RequestID: h.RequestID, Status: giop.ReplySystemException}, se.Encode)
			return msg
		}
		msg, _ := giop.EncodeReply(order, giop.ReplyHeader{RequestID: h.RequestID, Status: giop.ReplyNoException},
			func(e *cdr.Encoder) error {
				e.WriteString(s + s)
				return nil
			})
		return msg
	})
}

func startServer(t *testing.T, h Handler) (addr string, stop func()) {
	t.Helper()
	srv := NewServer(h)
	a, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return a.String(), func() { _ = srv.Close() }
}

func TestInvokeRoundTrip(t *testing.T) {
	addr, stop := startServer(t, echoHandler())
	defer stop()

	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	h, body, err := invoke(context.Background(), conn, []byte("obj"), "echo", cdr.BigEndian, func(e *cdr.Encoder) error {
		e.WriteString("ab")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != giop.ReplyNoException {
		t.Fatalf("status = %v", h.Status)
	}
	if s, _ := body.ReadString(); s != "abab" {
		t.Errorf("result = %q", s)
	}
}

func TestInvokeSystemException(t *testing.T) {
	addr, stop := startServer(t, echoHandler())
	defer stop()
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	h, body, err := invoke(context.Background(), conn, nil, "nonexistent", cdr.BigEndian, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != giop.ReplySystemException {
		t.Fatalf("status = %v", h.Status)
	}
	se, err := giop.DecodeSystemException(body)
	if err != nil {
		t.Fatal(err)
	}
	if se.RepoID != giop.RepoBadOperation {
		t.Errorf("exception = %+v", se)
	}
}

func TestConcurrentInvocationsMultiplex(t *testing.T) {
	// A slow handler forces replies to arrive out of order relative to
	// request submission, exercising request-ID demultiplexing.
	h := HandlerFunc(func(_ context.Context, rh giop.RequestHeader, args *cdr.Decoder, order cdr.ByteOrder) giop.Message {
		n, _ := args.ReadLong()
		if n%2 == 0 {
			time.Sleep(10 * time.Millisecond)
		}
		msg, _ := giop.EncodeReply(order, giop.ReplyHeader{RequestID: rh.RequestID, Status: giop.ReplyNoException},
			func(e *cdr.Encoder) error {
				e.WriteLong(n * 10)
				return nil
			})
		return msg
	})
	addr, stop := startServer(t, h)
	defer stop()
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := int32(0); i < 32; i++ {
		wg.Add(1)
		go func(n int32) {
			defer wg.Done()
			hdr, body, err := invoke(context.Background(), conn, nil, "mul", cdr.LittleEndian, func(e *cdr.Encoder) error {
				e.WriteLong(n)
				return nil
			})
			if err != nil {
				errs <- err
				return
			}
			if hdr.Status != giop.ReplyNoException {
				errs <- fmt.Errorf("status %v", hdr.Status)
				return
			}
			got, _ := body.ReadLong()
			if got != n*10 {
				errs <- fmt.Errorf("reply for %d was %d", n, got)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestInvokeAfterClose(t *testing.T) {
	addr, stop := startServer(t, echoHandler())
	defer stop()
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := invoke(context.Background(), conn, nil, "echo", cdr.BigEndian, nil); !errors.Is(err, ErrConnClosed) {
		t.Errorf("invoke after close: %v", err)
	}
	// Idempotent close.
	if err := conn.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	block := make(chan struct{})
	h := HandlerFunc(func(_ context.Context, rh giop.RequestHeader, _ *cdr.Decoder, order cdr.ByteOrder) giop.Message {
		<-block
		msg, _ := giop.EncodeReply(order, giop.ReplyHeader{RequestID: rh.RequestID, Status: giop.ReplyNoException}, nil)
		return msg
	})
	srv := NewServer(h)
	a, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Dial(a.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	done := make(chan error, 1)
	go func() {
		_, _, err := invoke(context.Background(), conn, nil, "hang", cdr.BigEndian, nil)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the request reach the handler
	close(block)                      // let the handler finish so Close can join
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		// Either a successful reply (if it raced ahead of close) or a
		// closed-connection error is acceptable; hanging is not.
		_ = err
	case <-time.After(2 * time.Second):
		t.Fatal("client invocation hung after server close")
	}
}

func TestDialError(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dial to closed port should fail")
	}
}

func TestListenTwiceAfterClose(t *testing.T) {
	srv := NewServer(echoHandler())
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Listen("127.0.0.1:0"); err == nil {
		t.Error("listen after close should fail")
	}
	if err := srv.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestOnewayRequestGetsNoReply(t *testing.T) {
	called := make(chan struct{}, 1)
	h := HandlerFunc(func(_ context.Context, rh giop.RequestHeader, _ *cdr.Decoder, order cdr.ByteOrder) giop.Message {
		called <- struct{}{}
		msg, _ := giop.EncodeReply(order, giop.ReplyHeader{RequestID: rh.RequestID, Status: giop.ReplyNoException}, nil)
		return msg
	})
	addr, stop := startServer(t, h)
	defer stop()

	// Send a raw oneway request (ResponseExpected=false) then a normal
	// request; the reply we get back must be for the second request.
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	req, err := giop.EncodeRequest(cdr.BigEndian, giop.RequestHeader{
		RequestID: 999, ResponseExpected: false, Operation: "oneway",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	conn.writeMu.Lock()
	err = giop.WriteMessage(conn.c, req)
	conn.writeMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	<-called

	hdr, _, err := invoke(context.Background(), conn, nil, "normal", cdr.BigEndian, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-called
	if hdr.Status != giop.ReplyNoException {
		t.Errorf("status = %v", hdr.Status)
	}
}
