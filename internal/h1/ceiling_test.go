package h1_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"livedev/internal/dyn"
	"livedev/internal/h1"
	"livedev/internal/h2b"
	"livedev/internal/jsonb"
	"livedev/internal/soap"
)

// TestCeilingBoundsEveryBinding: a call whose context has no deadline, to
// a handler that never answers, ends at the ceiling on all three HTTP call
// bindings, h2b's plain POST included.
func TestCeilingBoundsEveryBinding(t *testing.T) {
	defer h1.SetCeiling(50 * time.Millisecond)()
	srv := httptest.NewServer(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		// The server watches for a hang-up once the body is read.
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	defer srv.Close()
	sig := dyn.MethodSig{Name: "echo", Result: dyn.StringT}
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"SOAP", func() error {
			_, err := (&soap.Client{Endpoint: srv.URL, ServiceNS: "urn:S"}).CallContext(context.Background(), "echo", nil, dyn.StringT)
			return err
		}},
		{"JSON", func() error {
			_, err := (&jsonb.Caller{Endpoint: srv.URL}).Call(context.Background(), sig, nil)
			return err
		}},
		{"H2B-http", func() error {
			_, err := (&h2b.Caller{Endpoint: srv.URL}).Call(context.Background(), sig, nil)
			return err
		}},
	} {
		errc := make(chan error, 1)
		go func() { errc <- tc.call() }()
		select {
		case err := <-errc:
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Errorf("%s: a call past the ceiling returned %v, want a deadline error", tc.name, err)
			}
		case <-time.After(10 * time.Second):
			srv.CloseClientConnections() // so the deferred Close can return
			t.Fatalf("%s: the call still waits 10 s into a 50 ms ceiling", tc.name)
		}
	}
}
