package iiop

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"livedev/internal/cdr"
	"livedev/internal/giop"
)

// blockingHandler parks every request on a channel until released, and
// counts how many request contexts it saw cancelled.
type blockingHandler struct {
	release   chan struct{}
	cancelled atomic.Int32
	entered   chan struct{}
}

func newBlockingHandler() *blockingHandler {
	return &blockingHandler{release: make(chan struct{}), entered: make(chan struct{}, 64)}
}

func (b *blockingHandler) HandleRequest(ctx context.Context, h giop.RequestHeader, _ *cdr.Decoder, order cdr.ByteOrder) giop.Message {
	b.entered <- struct{}{}
	select {
	case <-ctx.Done():
		b.cancelled.Add(1)
	case <-b.release:
	}
	msg, _ := giop.EncodeReply(order, giop.ReplyHeader{RequestID: h.RequestID, Status: giop.ReplyNoException}, nil)
	return msg
}

// TestContextCancelAbortsInvoke proves the tentpole cancellation semantics
// at the transport layer: a cancelled context aborts the in-flight wait
// promptly, the error wraps context.Canceled, the CancelRequest reaches the
// server's request context, and the connection stays usable for the next
// call.
func TestContextCancelAbortsInvoke(t *testing.T) {
	h := newBlockingHandler()
	addr, stop := startServer(t, h)
	defer stop()
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := invoke(ctx, conn, nil, "hang", cdr.BigEndian, nil)
		done <- err
	}()
	<-h.entered // the request is parked in the handler
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled invoke did not return")
	}

	// The GIOP CancelRequest must cancel the server-side request context.
	deadline := time.After(2 * time.Second)
	for h.cancelled.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("server never observed the request cancellation")
		case <-time.After(5 * time.Millisecond):
		}
	}

	// The connection survives: release the handler and make a fresh call.
	close(h.release)
	hdr, _, err := invoke(context.Background(), conn, nil, "after", cdr.BigEndian, nil)
	if err != nil {
		t.Fatalf("invoke after cancellation: %v", err)
	}
	if hdr.Status != giop.ReplyNoException {
		t.Errorf("status = %v", hdr.Status)
	}
}

// TestDeadlineExceededUnderConcurrency races many deadline-bounded calls
// against normal ones on a single connection — the sharded pending table's
// register/abandon/route paths under contention (run with -race).
func TestDeadlineExceededUnderConcurrency(t *testing.T) {
	slow := HandlerFunc(func(_ context.Context, rh giop.RequestHeader, args *cdr.Decoder, order cdr.ByteOrder) giop.Message {
		n, _ := args.ReadLong()
		if n%2 == 0 {
			time.Sleep(30 * time.Millisecond)
		}
		msg, _ := giop.EncodeReply(order, giop.ReplyHeader{RequestID: rh.RequestID, Status: giop.ReplyNoException},
			func(e *cdr.Encoder) error { e.WriteLong(n); return nil })
		return msg
	})
	addr, stop := startServer(t, slow)
	defer stop()
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := int32(0); i < 64; i++ {
		wg.Add(1)
		go func(n int32) {
			defer wg.Done()
			ctx := context.Background()
			if n%2 == 0 {
				// Deadline far shorter than the slow path's sleep.
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, 5*time.Millisecond)
				defer cancel()
			}
			hdr, body, err := invoke(ctx, conn, nil, "op", cdr.BigEndian, func(e *cdr.Encoder) error {
				e.WriteLong(n)
				return nil
			})
			switch {
			case n%2 == 0:
				if !errors.Is(err, context.DeadlineExceeded) {
					errs <- errors.New("even call should have exceeded its deadline")
				}
			case err != nil:
				errs <- err
			case hdr.Status != giop.ReplyNoException:
				errs <- errors.New("bad status")
			default:
				if got, _ := body.ReadLong(); got != n {
					errs <- errors.New("wrong reply routed")
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// echoBenchHandler echoes one long back, no sleeping — measures transport
// and pending-table overhead only.
var echoBenchHandler = HandlerFunc(func(_ context.Context, rh giop.RequestHeader, args *cdr.Decoder, order cdr.ByteOrder) giop.Message {
	n, _ := args.ReadLong()
	msg, _ := giop.EncodeReply(order, giop.ReplyHeader{RequestID: rh.RequestID, Status: giop.ReplyNoException},
		func(e *cdr.Encoder) error { e.WriteLong(n); return nil })
	return msg
})

// BenchmarkConnInvokeParallel drives one connection from GOMAXPROCS
// goroutines — the workload the sharded pending-reply table exists for
// (compare with -cpu 1,4,16; the old single-mutex map serialized here).
func BenchmarkConnInvokeParallel(b *testing.B) {
	srv := NewServer(echoBenchHandler)
	a, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	conn, err := Dial(a.String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()

	ctx := context.Background()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			err := conn.InvokeInto(ctx, nil, "echo", cdr.BigEndian,
				func(e *cdr.Encoder) error { e.WriteLong(7); return nil },
				func(h giop.ReplyHeader, body *cdr.Decoder) error {
					if h.Status != giop.ReplyNoException {
						return errors.New("bad status")
					}
					_, err := body.ReadLong()
					return err
				})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkConnInvokeSerial is the single-caller baseline for the parallel
// benchmark above.
func BenchmarkConnInvokeSerial(b *testing.B) {
	srv := NewServer(echoBenchHandler)
	a, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	conn, err := Dial(a.String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()

	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		err := conn.InvokeInto(ctx, nil, "echo", cdr.BigEndian,
			func(e *cdr.Encoder) error { e.WriteLong(7); return nil },
			func(h giop.ReplyHeader, body *cdr.Decoder) error {
				_, err := body.ReadLong()
				return err
			})
		if err != nil {
			b.Fatal(err)
		}
	}
}
