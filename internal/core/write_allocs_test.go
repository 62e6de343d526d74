//go:build !race

package core_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"livedev/internal/cdr"
	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/giop"
	"livedev/internal/h2b"
	"livedev/internal/jsonb"
)

// TestWriteAllocsForcedNoop pins the rogue-client fast path of Section
// 5.7: a stale call against an idle publisher whose published interface is
// current runs EnsureCurrent's no-op branch, which must take no store lock
// and allocate nothing.
func TestWriteAllocsForcedNoop(t *testing.T) {
	mgr, err := core.NewManager(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mgr.Close() }()
	class := dyn.NewClass("Pin")
	if _, err := class.AddMethod(dyn.MethodSpec{Name: "op", Result: dyn.Int32T, Distributed: true}); err != nil {
		t.Fatal(err)
	}
	srv, err := mgr.Register(class, core.TechSOAP)
	if err != nil {
		t.Fatal(err)
	}
	pub := srv.Publisher()
	pub.EnsureCurrent()
	before := pub.Stats().ForcedNoop
	if allocs := testing.AllocsPerRun(200, pub.EnsureCurrent); allocs != 0 {
		t.Errorf("an idle, current EnsureCurrent allocates %.1f times, want 0", allocs)
	}
	if got := pub.Stats().ForcedNoop - before; got != 201 {
		t.Errorf("%d of 201 EnsureCurrent calls took the no-op path", got)
	}
}

// sinkWriter is a ResponseWriter that keeps the last reply and allocates
// nothing of its own once its body has grown.
type sinkWriter struct {
	h      http.Header
	status int
	body   []byte
}

func (w *sinkWriter) Header() http.Header { return w.h }
func (w *sinkWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}
func (w *sinkWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, p...)
	return len(p), nil
}

// TestWriteAllocsServedCall pins what the endpoint handler allocates to
// serve one small twice call on each HTTP binding, from the mux through
// the reply's write, with the request and the response writer reused; and
// what the CORBA servant's IIOP handler allocates for a twice call and for
// a stale one, from the decoded request header to the reply message.
func TestWriteAllocsServedCall(t *testing.T) {
	core.RegisterBinding(jsonb.New())
	core.RegisterBinding(h2b.New())
	m, err := core.NewManager(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	h := core.EndpointHandler(m)
	// The counts the handler made when this pin was set: lower a budget
	// when the handler gets cheaper, never raise one.
	budget := map[core.Technology]float64{core.TechSOAP: 5, jsonb.Name: 4, h2b.Name: 4}
	var ran atomic.Int32
	for _, b := range endpointBindings {
		class := "Allocs" + string(b.tech)
		srv, err := m.Register(endpointClass(t, class, &ran, nil, nil), b.tech)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.CreateInstance(); err != nil {
			t.Fatal(err)
		}
		header, body := b.request(class, "twice", 21)
		req := httptest.NewRequest(http.MethodPost, b.path+class, nil)
		for _, line := range strings.Split(strings.TrimSuffix(header, "\r\n"), "\r\n") {
			name, value, _ := strings.Cut(line, ": ")
			req.Header.Set(name, value)
		}
		raw := []byte(body)
		rd := bytes.NewReader(raw)
		req.Body, req.ContentLength = io.NopCloser(rd), int64(len(raw))
		w := &sinkWriter{h: http.Header{}}
		serve := func() {
			rd.Reset(raw)
			clear(w.h)
			w.status, w.body = 0, w.body[:0]
			h.ServeHTTP(w, req)
		}
		allocs := testing.AllocsPerRun(200, serve)
		if w.status != http.StatusOK {
			t.Fatalf("%s: the call answered %d: %q", b.tech, w.status, w.body)
		}
		t.Logf("%s: %.1f allocations per served call", b.tech, allocs)
		if allocs > budget[b.tech] {
			t.Errorf("%s: a served call allocates %.1f times, budget %.0f", b.tech, allocs, budget[b.tech])
		}
	}

	srv, err := m.Register(endpointClass(t, "AllocsCORBA", &ran, nil, nil), core.TechCORBA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	handle := core.CORBAHandler(srv.(*core.CORBAServer))
	args := binary.BigEndian.AppendUint32(nil, 21)
	// Budgets as above: a twice call and a stale one, the document carried.
	for _, c := range []struct {
		op     string
		status giop.ReplyStatus
		budget float64
	}{{"twice", giop.ReplyNoException, 1}, {"renamedAway", giop.ReplySystemException, 1}} {
		h := giop.RequestHeader{RequestID: 1, ResponseExpected: true, ObjectKey: []byte("AllocsCORBA"), Operation: c.op}
		d := cdr.NewDecoder(args, cdr.BigEndian)
		serve := func() giop.Message {
			d.Reset(args, cdr.BigEndian)
			return handle(context.Background(), h, d, cdr.BigEndian)
		}
		allocs := testing.AllocsPerRun(200, func() { msg := serve(); msg.Recycle() })
		msg := serve()
		hdr, _, err := giop.DecodeReply(msg)
		if err != nil || hdr.Status != c.status {
			t.Fatalf("CORBA %s: the call answered %s (%v), want %s", c.op, hdr.Status, err, c.status)
		}
		msg.Recycle()
		t.Logf("CORBA %s: %.1f allocations per served call", c.op, allocs)
		if allocs > c.budget {
			t.Errorf("CORBA %s: a served call allocates %.1f times, budget %.0f", c.op, allocs, c.budget)
		}
	}
}
