package core

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"livedev/internal/clock"
	"livedev/internal/dyn"
	"livedev/internal/soap"
)

// newHandlerUnderTest wires a SOAP call handler to a class and publisher
// directly, without a manager, for white-box tests.
func newHandlerUnderTest(t *testing.T) (*SOAPCallHandler, *dyn.Class, dyn.MemberID, *DLPublisher) {
	t.Helper()
	c := dyn.NewClass("H")
	id, err := c.AddMethod(dyn.MethodSpec{
		Name:        "double",
		Params:      []dyn.Param{{Name: "n", Type: dyn.Int32T}},
		Result:      dyn.Int32T,
		Distributed: true,
		Body: func(_ *dyn.Instance, args []dyn.Value) (dyn.Value, error) {
			return dyn.Int32Value(2 * args[0].Int32()), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	pub := NewDLPublisher(c, time.Hour, clock.Real{}, func(dyn.InterfaceDescriptor) error { return nil })
	t.Cleanup(pub.Close)
	pub.PublishNow()
	pub.WaitIdle()
	h := newSOAPCallHandler(c, "urn:H", pub)
	return h, c, id, pub
}

// post sends a SOAP request through the handler and parses the response.
func post(t *testing.T, h *SOAPCallHandler, body string) soap.Response {
	t.Helper()
	req := httptest.NewRequest("POST", "/soap/H", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	resp, err := soap.ParseResponse(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("unparseable handler response: %v\n%s", err, rec.Body.String())
	}
	return resp
}

func requestXML(t *testing.T, method string, params ...soap.NamedValue) string {
	t.Helper()
	env, err := soap.BuildRequest("urn:H", method, params)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestHandlerStatsCounters(t *testing.T) {
	h, _, _, _ := newHandlerUnderTest(t)

	// Inactive call.
	resp := post(t, h, requestXML(t, "double", soap.NamedValue{Name: "n", Value: dyn.Int32Value(2)}))
	if resp.Fault == nil || resp.Fault.String != soap.FaultServerNotInitialized {
		t.Fatalf("inactive fault = %+v", resp.Fault)
	}

	h.Activate(h.class.NewInstance())
	if !h.Active() {
		t.Fatal("handler should be active")
	}

	// Successful call.
	resp = post(t, h, requestXML(t, "double", soap.NamedValue{Name: "n", Value: dyn.Int32Value(21)}))
	if resp.Fault != nil {
		t.Fatalf("fault = %+v", resp.Fault)
	}
	v, err := soap.DecodeValue(resp.Return, dyn.Int32T)
	if err != nil || v.Int32() != 42 {
		t.Errorf("double = %v, %v", v, err)
	}

	// Malformed request.
	resp = post(t, h, "<<<<")
	if resp.Fault == nil || resp.Fault.String != soap.FaultMalformedRequest {
		t.Errorf("malformed fault = %+v", resp.Fault)
	}

	// Stale call.
	resp = post(t, h, requestXML(t, "ghost"))
	if resp.Fault == nil || resp.Fault.String != soap.FaultNonExistentMethod {
		t.Errorf("stale fault = %+v", resp.Fault)
	}

	st := h.Stats()
	if st.Inactive != 1 || st.Calls != 1 || st.Malformed != 1 || st.StaleCalls != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHandlerAppFaultCounted(t *testing.T) {
	h, c, _, _ := newHandlerUnderTest(t)
	if _, err := c.AddMethod(dyn.MethodSpec{
		Name:        "bad",
		Distributed: true,
		Body: func(*dyn.Instance, []dyn.Value) (dyn.Value, error) {
			return dyn.Value{}, strings.NewReader("").UnreadRune() // arbitrary error
		},
	}); err != nil {
		t.Fatal(err)
	}
	h.Activate(h.class.NewInstance())
	resp := post(t, h, requestXML(t, "bad"))
	if resp.Fault == nil {
		t.Fatal("expected application fault")
	}
	if h.Stats().AppFaults != 1 {
		t.Errorf("stats = %+v", h.Stats())
	}
}

func TestHandlerArityMismatchIsStale(t *testing.T) {
	h, _, _, _ := newHandlerUnderTest(t)
	h.Activate(h.class.NewInstance())
	// Two params where the live signature has one.
	resp := post(t, h, requestXML(t, "double",
		soap.NamedValue{Name: "a", Value: dyn.Int32Value(1)},
		soap.NamedValue{Name: "b", Value: dyn.Int32Value(2)}))
	if resp.Fault == nil || resp.Fault.String != soap.FaultNonExistentMethod {
		t.Errorf("arity mismatch fault = %+v", resp.Fault)
	}
	// A param that does not decode under the live type.
	resp = post(t, h, requestXML(t, "double",
		soap.NamedValue{Name: "n", Value: dyn.StringValue("not-an-int")}))
	if resp.Fault == nil || resp.Fault.String != soap.FaultNonExistentMethod {
		t.Errorf("type mismatch fault = %+v", resp.Fault)
	}
	if h.Stats().StaleCalls != 2 {
		t.Errorf("stats = %+v", h.Stats())
	}
}

// TestStaleCallStallsIncoming verifies the Section 5.7 "stalls the
// processing of incoming messages" behaviour: while a stale call is inside
// forced publication, new calls block on the gate until it completes.
func TestStaleCallStallsIncoming(t *testing.T) {
	c := dyn.NewClass("Stall")
	if _, err := c.AddMethod(dyn.MethodSpec{
		Name:        "op",
		Result:      dyn.Int32T,
		Distributed: true,
		Body: func(*dyn.Instance, []dyn.Value) (dyn.Value, error) {
			return dyn.Int32Value(7), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	genRelease := make(chan struct{})
	genStarted := make(chan struct{}, 4)
	pub := NewDLPublisher(c, time.Hour, clock.Real{}, func(dyn.InterfaceDescriptor) error {
		genStarted <- struct{}{}
		<-genRelease
		return nil
	})
	defer pub.Close()
	h := newSOAPCallHandler(c, "urn:Stall", pub)
	h.Activate(c.NewInstance())

	// Arm the timer (an unpublished edit) so the stale call must force a
	// generation, which we hold open.
	id, _ := c.MethodIDByName("op")
	if err := c.RenameMethod(id, "op2"); err != nil {
		t.Fatal(err)
	}

	staleDone := make(chan struct{})
	go func() {
		defer close(staleDone)
		env, _ := soap.BuildRequest("urn:Stall", "op", nil) // stale name
		req := httptest.NewRequest("POST", "/", strings.NewReader(env))
		h.ServeHTTP(httptest.NewRecorder(), req)
	}()
	<-genStarted // the stale call is now inside EnsureCurrent

	// A healthy call must stall behind the gate.
	var mu sync.Mutex
	healthyFinished := false
	healthyDone := make(chan struct{})
	go func() {
		defer close(healthyDone)
		env, _ := soap.BuildRequest("urn:Stall", "op2", nil)
		req := httptest.NewRequest("POST", "/", strings.NewReader(env))
		h.ServeHTTP(httptest.NewRecorder(), req)
		mu.Lock()
		healthyFinished = true
		mu.Unlock()
	}()

	time.Sleep(30 * time.Millisecond)
	mu.Lock()
	finished := healthyFinished
	mu.Unlock()
	if finished {
		t.Error("incoming call was not stalled during forced publication")
	}

	close(genRelease)
	select {
	case <-staleDone:
	case <-time.After(5 * time.Second):
		t.Fatal("stale call hung")
	}
	select {
	case <-healthyDone:
	case <-time.After(5 * time.Second):
		t.Fatal("stalled call never resumed")
	}
}

func TestManagerListenFailure(t *testing.T) {
	// Occupy a port, then ask the manager to bind it.
	m1, err := NewManager(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m1.Close()
	busy := m1.HTTPBaseURL()[len("http://"):]
	if _, err := NewManager(Config{HTTPAddr: busy}); err == nil {
		t.Error("manager on a busy HTTP port should fail")
	}
	if _, err := NewManager(Config{InterfaceAddr: m1.InterfaceBaseURL()[len("http://"):]}); err == nil {
		t.Error("manager on a busy interface port should fail")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.InterfaceAddr == "" || cfg.HTTPAddr == "" || cfg.CORBAAddr == "" {
		t.Error("addresses should default")
	}
	if got := (Config{HTTPAddr: "127.0.0.1:9999"}).withDefaults().HTTPAddr; got != "127.0.0.1:9999" {
		t.Errorf("an explicit HTTPAddr should survive defaulting, got %q", got)
	}
	if cfg.Timeout != DefaultTimeout {
		t.Error("timeout should default")
	}
	if cfg.Clock == nil {
		t.Error("clock should default")
	}
}
