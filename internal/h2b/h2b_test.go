package h2b

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"livedev/internal/cde"
	"livedev/internal/cdr"
	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/h2x"
	"livedev/internal/ifsvr"
	"livedev/internal/jsonb"
)

func init() {
	// Wire the binding exactly the way livedev.RegisterBinding does —
	// through the public registries, no core edits.
	core.RegisterBinding(New())
	cde.RegisterConnector(Connector())
}

func calcClass(t *testing.T) *dyn.Class {
	t.Helper()
	c := dyn.NewClass("HCalc")
	_, err := c.AddMethod(dyn.MethodSpec{
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
	return c
}

func TestDocRoundTrip(t *testing.T) {
	point := dyn.MustStructOf("Point",
		dyn.StructField{Name: "x", Type: dyn.Float64T},
		dyn.StructField{Name: "y", Type: dyn.Float64T})
	c := dyn.NewClass("HGeo")
	_, _ = c.AddMethod(dyn.MethodSpec{
		Name:        "mid",
		Params:      []dyn.Param{{Name: "a", Type: point}, {Name: "b", Type: point}},
		Result:      dyn.SequenceOf(point),
		Distributed: true,
		Body: func(_ *dyn.Instance, args []dyn.Value) (dyn.Value, error) {
			return dyn.SequenceValue(point, args[0], args[1])
		},
	})
	desc := c.Interface()
	text, err := GenerateDoc(desc, "http://example/h2b/HGeo", "example:7412")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, DocFormat) {
		t.Errorf("document does not carry its format tag:\n%s", text)
	}
	got, endpoint, mux, err := ParseDoc(text)
	if err != nil {
		t.Fatal(err)
	}
	if endpoint != "http://example/h2b/HGeo" {
		t.Errorf("endpoint = %q", endpoint)
	}
	if mux != "example:7412" {
		t.Errorf("mux endpoint = %q", mux)
	}
	if !got.Equal(desc) {
		t.Errorf("descriptor round trip mismatch:\n got %v\nwant %v", got.Methods, desc.Methods)
	}

	// A document without the fast-path key still compiles (mux empty).
	plain, err := GenerateDoc(desc, "http://example/h2b/HGeo", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, mux, err := ParseDoc(plain); err != nil || mux != "" {
		t.Errorf("mux-less document: mux=%q err=%v", mux, err)
	}

	// The two bindings share a document grammar but not a format tag: each
	// parser must reject the other's documents, or Dial sniffing would be
	// ambiguous.
	jsonText, err := jsonb.GenerateDoc(desc, "http://example/json/HGeo")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ParseDoc(jsonText); err == nil {
		t.Error("h2b.ParseDoc accepted a JSON-binding document")
	}
	if _, _, err := jsonb.ParseDoc(text); err == nil {
		t.Error("jsonb.ParseDoc accepted an h2b document")
	}
}

func TestServeRegisterAndCall(t *testing.T) {
	mgr, err := core.NewManager(core.Config{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	srv, err := mgr.Register(calcClass(t), core.Technology(Name))
	if err != nil {
		t.Fatal(err)
	}
	if srv.Technology() != core.Technology("H2B") {
		t.Errorf("technology = %s", srv.Technology())
	}

	// Calls before CreateInstance must be refused.
	ctx := context.Background()
	client, err := cde.Dial(ctx, srv.InterfaceURL(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.CallContext(ctx, "add", dyn.Int32Value(1), dyn.Int32Value(2)); err == nil {
		t.Fatal("call before CreateInstance should fail")
	}

	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	got, err := client.CallContext(ctx, "add", dyn.Int32Value(20), dyn.Int32Value(22))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int32() != 42 {
		t.Errorf("add = %d", got.Int32())
	}
	if client.Technology() != "H2B" {
		t.Errorf("client technology = %s", client.Technology())
	}
}

// TestMuxParallelCallsShareOneConn pins the binding's fast-path design:
// parallel calls through the mux endpoint ride streams of one pooled h2x
// connection, single-flight dialed, instead of opening one each.
func TestMuxParallelCallsShareOneConn(t *testing.T) {
	mgr, err := core.NewManager(core.Config{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	srv, err := mgr.Register(calcClass(t), core.Technology(Name))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}

	muxAddr := srv.(*Server).MuxAddr()
	if muxAddr == "" {
		t.Fatal("server advertises no mux endpoint")
	}
	before := Dials(muxAddr)

	sig, ok := srv.Class().Interface().Lookup("add")
	if !ok {
		t.Fatal("no signature for add")
	}
	caller := &Caller{Endpoint: srv.(*Server).Endpoint(), Mux: muxAddr}
	const callers = 32
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int32) {
			defer wg.Done()
			got, err := caller.Call(context.Background(), sig, []dyn.Value{dyn.Int32Value(i), dyn.Int32Value(1)})
			if err == nil && got.Int32() != i+1 {
				err = fmt.Errorf("add(%d, 1) = %d", i, got.Int32())
			}
			errs <- err
		}(int32(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if dials := Dials(muxAddr) - before; dials > 1 {
		t.Errorf("%d parallel fast-path calls dialed %d TCP connections; the pool should need 1", callers, dials)
	}
}

// TestServerRefusesOversizeBody: a body over the call size limit is
// malformed as a whole on the HTTP path, as it is on the fast path — not
// cut at the limit, decoded as far as it goes and then taken for a stale
// call, which would force a publication and send the client refetching.
func TestServerRefusesOversizeBody(t *testing.T) {
	mgr, err := core.NewManager(core.Config{Timeout: 30 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	srv, err := mgr.Register(calcClass(t), core.Technology(Name))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	forcedBefore, statsBefore := srv.Publisher().Stats(), srv.CallStats()

	// add(1, 2), then padding one octet past the limit.
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteLong(1)
	e.WriteLong(2)
	body := append(e.Bytes(), make([]byte, maxBodyBytes+1-len(e.Bytes()))...)
	for _, declare := range []bool{true, false} {
		var r io.Reader = bytes.NewReader(body)
		if !declare { // chunked: the limit has to be found by reading
			r = io.MultiReader(r)
		}
		req, err := http.NewRequest(http.MethodPost, srv.(*Server).Endpoint(), r)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(MethodHeader, "add")
		req.Header.Set(OrderHeader, OrderBig)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || resp.Header.Get(ErrorHeader) != CodeMalformed {
			t.Errorf("oversize body (declared length %v) answered %d %q, want 400 %q",
				declare, resp.StatusCode, resp.Header.Get(ErrorHeader), CodeMalformed)
		}
	}
	if after := srv.Publisher().Stats(); after.Forced != forcedBefore.Forced || after.ForcedNoop != forcedBefore.ForcedNoop {
		t.Errorf("an oversize body ran the stale-call protocol: %+v -> %+v", forcedBefore, after)
	}
	statsBefore.Malformed += 2
	if after := srv.CallStats(); after != statsBefore {
		t.Errorf("stats = %+v, want %+v", after, statsBefore)
	}
}

// TestCallerRefusesOversizeReply: a reply over the limit is reported as
// such, not cut at the limit and handed to the decoder.
func TestCallerRefusesOversizeReply(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// A well-formed sequence<octet-sized booleans> one element too long.
		e := cdr.NewEncoder(cdr.BigEndian)
		e.WriteULong(maxBodyBytes)
		w.Header().Set("Content-Type", CallContentType)
		w.Header().Set(OrderHeader, OrderBig)
		_, _ = w.Write(e.Bytes())
		_, _ = w.Write(make([]byte, maxBodyBytes))
	}))
	defer ts.Close()

	sig := dyn.MethodSig{Name: "flags", Result: dyn.SequenceOf(dyn.Boolean)}
	_, err := (&Caller{Endpoint: ts.URL}).Call(context.Background(), sig, nil)
	if !errors.Is(err, errBodyTooLarge) {
		t.Fatalf("an oversize reply returned %v, want errBodyTooLarge", err)
	}
}

// TestDeadlineExceededUnderConcurrentStreams is the h2b face of the IIOP
// deadline-storm test: many concurrent streams on one connection, half
// with deadlines shorter than the server's work. Expired calls must
// surface context.DeadlineExceeded; their stream resets must not disturb
// the replies of the surviving streams.
func TestDeadlineExceededUnderConcurrentStreams(t *testing.T) {
	mgr, err := core.NewManager(core.Config{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	c := dyn.NewClass("HWork")
	_, _ = c.AddMethod(dyn.MethodSpec{
		Name:        "work",
		Params:      []dyn.Param{{Name: "n", Type: dyn.Int32T}},
		Result:      dyn.Int32T,
		Distributed: true,
		Body: func(_ *dyn.Instance, args []dyn.Value) (dyn.Value, error) {
			time.Sleep(30 * time.Millisecond)
			return dyn.Int32Value(args[0].Int32() * 2), nil
		},
	})
	srv, err := mgr.Register(c, core.Technology(Name))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	sig, ok := c.Interface().Lookup("work")
	if !ok {
		t.Fatal("no signature for work")
	}

	// The same storm over both transports: deadline semantics are part of
	// the wire contract, not a property of one stack.
	for _, tc := range []struct {
		name   string
		caller *Caller
	}{
		{"http", &Caller{Endpoint: srv.(*Server).Endpoint()}},
		{"mux", &Caller{Endpoint: srv.(*Server).Endpoint(), Mux: srv.(*Server).MuxAddr()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const calls = 64
			var wg sync.WaitGroup
			errs := make(chan error, calls)
			for i := 0; i < calls; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					ctx := context.Background()
					if i%2 == 0 {
						var cancel context.CancelFunc
						ctx, cancel = context.WithTimeout(ctx, 5*time.Millisecond)
						defer cancel()
					}
					got, err := tc.caller.Call(ctx, sig, []dyn.Value{dyn.Int32Value(int32(i))})
					switch {
					case i%2 == 0:
						if !errors.Is(err, context.DeadlineExceeded) {
							errs <- fmt.Errorf("call %d: want DeadlineExceeded, got %v", i, err)
							return
						}
					case err != nil:
						errs <- fmt.Errorf("call %d: %v", i, err)
						return
					case got.Int32() != int32(i)*2:
						errs <- fmt.Errorf("call %d: work = %d, want %d", i, got.Int32(), i*2)
						return
					}
					errs <- nil
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Error(err)
				}
			}
		})
	}
}

func TestStaleCallRunsReactiveProtocol(t *testing.T) {
	mgr, err := core.NewManager(core.Config{Timeout: 30 * time.Minute}) // timer effectively never fires
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	class := calcClass(t)
	srv, err := mgr.Register(class, core.Technology(Name))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	client, err := cde.Dial(ctx, srv.InterfaceURL(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Rename the method; with a huge stability timeout the document stays
	// stale until a client call forces it current (Section 5.7).
	id, ok := class.MethodIDByName("add")
	if !ok {
		t.Fatal("no method id for add")
	}
	if err := class.RenameMethod(id, "plus"); err != nil {
		t.Fatal(err)
	}

	_, err = client.CallContext(ctx, "add", dyn.Int32Value(1), dyn.Int32Value(2))
	var stale *cde.StaleMethodError
	if !errors.As(err, &stale) {
		t.Fatalf("want StaleMethodError, got %v", err)
	}
	// The client's view must already contain the rename.
	if _, ok := client.Interface().Lookup("plus"); !ok {
		t.Error("client view should have been reactively refreshed to contain plus")
	}
	got, err := client.CallContext(ctx, "plus", dyn.Int32Value(40), dyn.Int32Value(2))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int32() != 42 {
		t.Errorf("plus = %d", got.Int32())
	}
}

func TestCancellationAbortsInFlightCall(t *testing.T) {
	mgr, err := core.NewManager(core.Config{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	block := make(chan struct{})
	defer close(block)
	c := dyn.NewClass("HSlow")
	_, _ = c.AddMethod(dyn.MethodSpec{
		Name: "hang", Result: dyn.StringT, Distributed: true,
		Body: func(_ *dyn.Instance, _ []dyn.Value) (dyn.Value, error) {
			<-block
			return dyn.StringValue("late"), nil
		},
	})
	srv, err := mgr.Register(c, core.Technology(Name))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	client, err := cde.Dial(context.Background(), srv.InterfaceURL(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = client.CallContext(ctx, "hang")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v, should be prompt", elapsed)
	}
}

// TestStaleReplyCarriesDocumentUpToTheBound: on both fronts, a stale error
// reply whose body is a document of exactly ifsvr.MaxCarriedDoc octets
// reaches the client whole, past the 64 KiB message cap's old cut; one
// octet more is refused rather than cut, and so is a body without the
// document headers.
func TestStaleReplyCarriesDocumentUpToTheBound(t *testing.T) {
	doc := ifsvr.Document{Version: 3, DescriptorVersion: 5, Epoch: 8, Generation: 13}
	var (
		mu      sync.Mutex
		body    string
		headers bool
	)
	answer := func() (string, [][2]string) {
		mu.Lock()
		defer mu.Unlock()
		var hdr [][2]string
		if headers {
			ifsvr.DocHeaders(doc, func(name, value string) { hdr = append(hdr, [2]string{name, value}) })
		}
		return body, hdr
	}
	plain := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		b, hdr := answer()
		for _, h := range hdr {
			w.Header().Set(h[0], h[1])
		}
		writeError(w, http.StatusNotFound, CodeNonExistentMethod, b)
	}))
	defer plain.Close()
	mux := h2x.NewServer(h2x.HandlerFunc(func(_ context.Context, _ *h2x.Request) *h2x.Response {
		b, hdr := answer()
		fields := [][2]string{{muxErrorHeader, CodeNonExistentMethod}}
		for _, h := range hdr {
			fields = append(fields, [2]string{strings.ToLower(h[0]), h[1]})
		}
		return &h2x.Response{Status: http.StatusNotFound, Header: fields, Body: []byte(b)}
	}))
	muxAddr, err := mux.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()

	sig := dyn.MethodSig{Name: "gone", Result: dyn.Int32T}
	for _, tc := range []struct {
		name    string
		size    int
		headers bool
		carried bool
	}{
		{"at the bound", ifsvr.MaxCarriedDoc, true, true},
		{"one octet past it", ifsvr.MaxCarriedDoc + 1, true, false},
		{"without the headers", 100, false, false},
	} {
		mu.Lock()
		body, headers = strings.Repeat("d", tc.size), tc.headers
		mu.Unlock()
		for front, c := range map[string]*Caller{"http": {Endpoint: plain.URL}, "mux": {Endpoint: plain.URL, Mux: muxAddr}} {
			_, err := c.Call(context.Background(), sig, nil)
			var stale *StaleError
			if !errors.As(err, &stale) || !errors.Is(err, ErrNonExistentMethod) {
				t.Fatalf("%s, %s: %v", tc.name, front, err)
			}
			switch got := stale.Interface; {
			case !tc.carried && got != nil:
				t.Errorf("%s, %s: carried %d octets", tc.name, front, len(got.Content))
			case tc.carried && (got == nil || len(got.Content) != tc.size || got.Version != doc.Version || got.Generation != doc.Generation):
				t.Errorf("%s, %s: carried %+v", tc.name, front, got)
			}
		}
	}
}
