package core_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"livedev/internal/cde"
	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/h2b"
	"livedev/internal/jsonb"
	"livedev/internal/soap"
)

// slowEchoClass serves one echo method that blocks for d before replying —
// the probe for "in-flight calls survive the drain".
func slowEchoClass(t *testing.T, name string, d time.Duration) *dyn.Class {
	t.Helper()
	c := dyn.NewClass(name)
	if _, err := c.AddMethod(dyn.MethodSpec{
		Name:        "echo",
		Params:      []dyn.Param{{Name: "s", Type: dyn.StringT}},
		Result:      dyn.StringT,
		Distributed: true,
		Body: func(_ *dyn.Instance, args []dyn.Value) (dyn.Value, error) {
			time.Sleep(d)
			return args[0], nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

// httpClients are the two ways an HTTP call binding posts: the default
// client (internal/h1) and an injected *http.Client. The suffix names the
// subtest.
var httpClients = []struct {
	suffix string
	client *http.Client
}{{"", nil}, {"-injected", &http.Client{}}}

// TestDrainCompletesInFlightCall is the heart of the lifecycle contract: a
// call accepted before Drain runs to completion while the drain is in
// progress, and a connection arriving after the drain began is refused —
// on every binding that answers calls on the shared HTTP endpoint, which
// is the listener Drain closes. SOAP and JSON run twice: on the default
// client (internal/h1) and on an injected *http.Client.
func TestDrainCompletesInFlightCall(t *testing.T) {
	core.RegisterBinding(jsonb.New())
	core.RegisterBinding(h2b.New())
	sig := dyn.MethodSig{Name: "echo", Params: []dyn.Param{{Name: "s", Type: dyn.StringT}}, Result: dyn.StringT}
	args := []dyn.Value{dyn.StringValue("survives")}
	type row struct {
		name string
		tech core.Technology
		// caller returns the binding's raw call stub for a served class.
		caller func(srv core.Server) func(context.Context) (dyn.Value, error)
	}
	var rows []row
	for _, hc := range httpClients {
		rows = append(rows,
			row{"SOAP" + hc.suffix, core.TechSOAP, func(srv core.Server) func(context.Context) (dyn.Value, error) {
				client := &soap.Client{Endpoint: srv.Endpoint(), ServiceNS: "urn:SlowDrain", HTTPClient: hc.client}
				return func(ctx context.Context) (dyn.Value, error) {
					return client.CallContext(ctx, "echo", []soap.NamedValue{{Name: "s", Value: args[0]}}, dyn.StringT)
				}
			}},
			row{"JSON" + hc.suffix, jsonb.Name, func(srv core.Server) func(context.Context) (dyn.Value, error) {
				caller := &jsonb.Caller{Endpoint: srv.Endpoint(), HTTPClient: hc.client}
				return func(ctx context.Context) (dyn.Value, error) { return caller.Call(ctx, sig, args) }
			}})
	}
	// No Mux address: the call is a plain POST to the shared endpoint,
	// not a stream on the binding's own listener. h2b takes no HTTP
	// client for calls, so it runs on the default client only.
	rows = append(rows, row{"H2B-http", h2b.Name, func(srv core.Server) func(context.Context) (dyn.Value, error) {
		caller := &h2b.Caller{Endpoint: srv.Endpoint()}
		return func(ctx context.Context) (dyn.Value, error) { return caller.Call(ctx, sig, args) }
	}})
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			m := newManager(t)
			srv, err := m.Register(slowEchoClass(t, "SlowDrain", 300*time.Millisecond), tc.tech)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := srv.CreateInstance(); err != nil {
				t.Fatal(err)
			}
			call := tc.caller(srv)

			type result struct {
				val dyn.Value
				err error
			}
			inflight := make(chan result, 1)
			go func() {
				v, err := call(context.Background())
				inflight <- result{v, err}
			}()
			time.Sleep(50 * time.Millisecond) // let the call reach the (sleeping) handler

			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			drained := make(chan error, 1)
			go func() { drained <- m.Drain(ctx) }()

			// While the drain is waiting on the slow call, new work is refused:
			// registrations immediately, new HTTP dials once the listener closes.
			time.Sleep(50 * time.Millisecond)
			if !m.Draining() {
				t.Fatal("Draining() = false during Drain")
			}
			if _, err := m.Register(slowEchoClass(t, "LateClass", 0), core.TechSOAP); err == nil {
				t.Fatal("Register succeeded on a draining manager")
			}
			if err := m.Probe(); !errors.Is(err, core.ErrDraining) {
				t.Fatalf("Probe during drain = %v, want ErrDraining", err)
			}

			r := <-inflight
			if r.err != nil {
				t.Fatalf("in-flight call dropped by drain: %v", r.err)
			}
			if r.val.Str() != "survives" {
				t.Fatalf("in-flight call corrupted: %q", r.val.Str())
			}
			if err := <-drained; err != nil {
				t.Fatalf("Drain: %v", err)
			}

			// The listener is closed now: a fresh dial must fail.
			if _, err := http.Get(m.HTTPBaseURL() + "/metrics"); err == nil {
				t.Fatal("new HTTP connection accepted after drain")
			}
			if err := m.Stop(); err != nil {
				t.Fatalf("Stop: %v", err)
			}
		})
	}
}

func TestProbeLifecycle(t *testing.T) {
	m := newManager(t)
	if err := m.Probe(); err != nil {
		t.Fatalf("Probe on a healthy manager: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := m.Probe(); !errors.Is(err, core.ErrDraining) {
		t.Fatalf("Probe after Drain = %v, want ErrDraining", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close after Drain: %v", err)
	}
	if err := m.Probe(); err == nil {
		t.Fatal("Probe succeeded on a closed manager")
	}
	// Idempotent teardown: Drain and Close on a closed manager are no-ops.
	if err := m.Drain(context.Background()); err != nil {
		t.Fatalf("Drain after Close: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestMetricsEndpoint asserts the ops-plane gauges docs/ops.md advertises
// are present on the shared endpoint mux, with the SOAP call made on the
// default client and on an injected one.
func TestMetricsEndpoint(t *testing.T) {
	for _, hc := range httpClients {
		t.Run("SOAP"+hc.suffix, func(t *testing.T) { testMetricsEndpoint(t, hc.client) })
	}
}

func testMetricsEndpoint(t *testing.T, hc *http.Client) {
	m := newManager(t)
	srv, err := m.Register(slowEchoClass(t, "Metered", 0), core.TechSOAP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	client := &soap.Client{Endpoint: srv.Endpoint(), ServiceNS: "urn:Metered", HTTPClient: hc}
	if _, err := client.CallContext(context.Background(), "echo",
		[]soap.NamedValue{{Name: "s", Value: dyn.StringValue("hi")}}, dyn.StringT); err != nil {
		t.Fatal(err)
	}
	// Two transports the endpoint mux never sees: IIOP, and h2b's fast path.
	_, corbaClient, _, _ := startCORBA(t, m, "MeteredC")
	if _, err := corbaClient.CallContext(context.Background(), "add", dyn.Int32Value(1), dyn.Int32Value(2)); err != nil {
		t.Fatal(err)
	}
	core.RegisterBinding(h2b.New())
	hsrv, err := m.Register(slowEchoClass(t, "MeteredH", 0), h2b.Name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hsrv.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	echoSig := dyn.MethodSig{Name: "echo", Params: []dyn.Param{{Name: "s", Type: dyn.StringT}}, Result: dyn.StringT}
	mux := &h2b.Caller{Endpoint: hsrv.Endpoint(), Mux: hsrv.(*h2b.Server).MuxAddr()}
	if _, err := mux.Call(context.Background(), echoSig, []dyn.Value{dyn.StringValue("hi")}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(m.HTTPBaseURL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"livedev_up 1",
		"livedev_draining 0",
		"livedev_endpoint_requests_total",
		"livedev_store_commits_total",
		"livedev_store_journal_depth",
		"livedev_watchers",
		"livedev_repl_lag",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The echo call above must show up on its endpoint's request counter,
	// and every call — whatever carried it — on its class's outcome counters.
	for _, want := range []string{
		`livedev_endpoint_requests_total{path="/soap/Metered"} 1`,
		`livedev_calls_total{class="Metered",binding="SOAP",outcome="ok"} 1`,
		`livedev_calls_total{class="MeteredC",binding="CORBA",outcome="ok"} 1`,
		`livedev_calls_total{class="MeteredH",binding="H2B",outcome="ok"} 1`,
		`livedev_calls_total{class="MeteredH",binding="H2B",outcome="inactive"} 0`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestListenersSpeakHTTP11Only: neither shared listener advertises or
// accepts cleartext HTTP/2. net/http hands a prior-knowledge client's
// preface to the handler as a "PRI *" request, which the Interface Server
// answers 405 and the endpoint mux 404 — so the client fails at once
// rather than hanging, and nothing is published, dispatched or counted.
func TestListenersSpeakHTTP11Only(t *testing.T) {
	m := newManager(t)
	srv, err := m.Register(slowEchoClass(t, "Plain", 0), core.TechSOAP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	metrics := func() string {
		t.Helper()
		resp, err := http.Get(m.HTTPBaseURL() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if h := resp.Header.Get("X-H2C"); h != "" {
			t.Errorf("the endpoint server advertises X-H2C: %s", h)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var calls []string
		for _, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(line, "livedev_calls_total") {
				calls = append(calls, line)
			}
		}
		return strings.Join(calls, "\n")
	}
	resp, err := http.Get(srv.InterfaceURL())
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if h := resp.Header.Get("X-H2C"); h != "" {
		t.Errorf("the Interface Server advertises X-H2C: %s", h)
	}
	callsBefore, storeBefore := metrics(), m.Store().Stats()

	var p http.Protocols
	p.SetUnencryptedHTTP2(true)
	h2c := &http.Client{Transport: &http.Transport{Protocols: &p}, Timeout: 5 * time.Second}
	for _, target := range []string{srv.InterfaceURL(), srv.Endpoint()} {
		start := time.Now()
		resp, err := h2c.Post(target, "text/xml", strings.NewReader("<x/>"))
		if err == nil {
			_ = resp.Body.Close()
			t.Errorf("prior-knowledge h2c POST to %s was answered over %s, want an error", target, resp.Proto)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("prior-knowledge h2c POST to %s took %v to fail, want a prompt error", target, elapsed)
		}
	}
	if after := m.Store().Stats(); after.Publishes != storeBefore.Publishes || after.Commits != storeBefore.Commits {
		t.Errorf("an h2c preface published: %+v -> %+v", storeBefore, after)
	}
	if after := metrics(); after != callsBefore {
		t.Errorf("an h2c preface was counted as a call:\n%s\n->\n%s", callsBefore, after)
	}
}

// TestLifecycleGoroutineChurn registers and unregisters classes, churns
// watch clients, and asserts the goroutine count settles back near the
// baseline — the leak test for every lifecycle path this PR touches.
func TestLifecycleGoroutineChurn(t *testing.T) {
	m := newManager(t)
	baseline := runtime.NumGoroutine()

	// A dedicated transport for the churned clients: the process-wide
	// shared pools (sharedDocClient, the soap/jsonb call transports) hold
	// keep-alive connections by design, which would read as leaks here.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	hc := &http.Client{Transport: tr}

	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("Churn%d", i)
		srv, err := m.Register(slowEchoClass(t, name, 0), core.TechSOAP)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.CreateInstance(); err != nil {
			t.Fatal(err)
		}
		c, err := cde.Dial(context.Background(), srv.InterfaceURL(), &cde.DialOptions{Watch: true, HTTPClient: hc})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.CallContext(context.Background(), "echo", dyn.StringValue("x")); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Goroutines wind down asynchronously (stream teardown, publisher
	// stop); poll instead of sleeping a fixed eternity.
	deadline := time.Now().Add(5 * time.Second)
	for {
		// Pooled keep-alive connections (this test's transport and their
		// server-side peers) park goroutines that are reclaimed, not
		// leaked: drop them before counting.
		tr.CloseIdleConnections()
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDrainEndsHeldStreams: a streaming watch client connected through the
// Interface Server observes the terminal draining frame (counted in its
// ClientStats) instead of waiting out a timeout, and keeps its view.
func TestDrainEndsHeldStreams(t *testing.T) {
	m := newManager(t)
	class := slowEchoClass(t, "DrainWatch", 0)
	renameID, err := class.AddMethod(dyn.MethodSpec{Name: "v0", Result: dyn.Int32T, Distributed: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := m.Register(class, core.TechSOAP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	c, err := cde.Dial(context.Background(), srv.InterfaceURL(), &cde.DialOptions{Watch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Watching() only means the watch loop started; prove the SSE stream is
	// actually established by pushing an edit through it and waiting for
	// the client to observe it.
	if err := class.RenameMethod(renameID, "v1"); err != nil {
		t.Fatal(err)
	}
	srv.Publisher().PublishNow()
	deadline := time.Now().Add(3 * time.Second)
	for c.Stats().StreamEvents == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stream never delivered the warm-up edit: stats %+v", c.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Drain blocked %v on a held stream — the terminal frame did not end it", elapsed)
	}
	// The client turned the terminal frame into a drain-count and a
	// reconnect attempt (which will back off against the closed listener).
	deadline = time.Now().Add(3 * time.Second)
	for c.Stats().Drains == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("client never observed the draining frame: stats %+v", c.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// failingBinding builds a ClassServer, fails, and closes what it built —
// the shape of a Serve whose listener cannot bind. Before returning it
// tries to register the same class again, as a concurrent Register landing
// in that window would.
type failingBinding struct{ during error }

func (*failingBinding) Name() string { return "FAILS" }

func (b *failingBinding) Serve(m *core.Manager, class *dyn.Class) (core.Server, error) {
	s := m.NewClassServer(class, "FAILS", "/fails/"+class.Name(), "text/plain",
		func(dyn.InterfaceDescriptor) (string, error) { return "", nil })
	_ = s.Close()
	_, b.during = m.Register(class, core.TechSOAP)
	return nil, errors.New("listener would not bind")
}

// TestFailedServeKeepsRegistrationReserved: closing a half-built server
// must not release the name Register reserved for it; only Register's own
// return does.
func TestFailedServeKeepsRegistrationReserved(t *testing.T) {
	m := newManager(t)
	class, _ := newCalcClass(t, "Reserved")
	b := &failingBinding{}
	core.RegisterBinding(b)
	if _, err := m.Register(class, "FAILS"); err == nil {
		t.Fatal("Register should report the failed Serve")
	}
	if b.during == nil || !strings.Contains(b.during.Error(), "already managed") {
		t.Errorf("a second Register during the failed one: got %v, want \"already managed\"", b.during)
	}
	if _, err := m.Register(class, core.TechSOAP); err != nil {
		t.Fatalf("the name should be free once the failed Register has returned: %v", err)
	}
	if n := len(m.Servers()); n != 1 {
		t.Errorf("%d servers managed, want 1", n)
	}
}
