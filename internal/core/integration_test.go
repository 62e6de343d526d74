package core_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"livedev/internal/cde"
	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/soap"
)

// newManager starts a manager with a short real-clock publication timeout.
func newManager(t *testing.T) *core.Manager {
	t.Helper()
	m, err := core.NewManager(core.Config{Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	return m
}

// newCalcClass builds the running example: a Calc service with add and
// greet, plus a Message struct method for composite-type coverage.
func newCalcClass(t *testing.T, name string) (*dyn.Class, dyn.MemberID) {
	t.Helper()
	c := dyn.NewClass(name)
	addID, err := c.AddMethod(dyn.MethodSpec{
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
	msg := dyn.MustStructOf("Note",
		dyn.StructField{Name: "text", Type: dyn.StringT},
		dyn.StructField{Name: "id", Type: dyn.Int64T})
	if _, err := c.AddMethod(dyn.MethodSpec{
		Name:        "wrap",
		Params:      []dyn.Param{{Name: "text", Type: dyn.StringT}},
		Result:      dyn.SequenceOf(msg),
		Distributed: true,
		Body: func(_ *dyn.Instance, args []dyn.Value) (dyn.Value, error) {
			n := dyn.MustStructValue(msg, args[0], dyn.Int64Value(1))
			return dyn.SequenceValue(msg, n)
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddMethod(dyn.MethodSpec{
		Name:   "internal",
		Result: dyn.Int32T,
		Body: func(_ *dyn.Instance, _ []dyn.Value) (dyn.Value, error) {
			return dyn.Int32Value(99), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	return c, addID
}

func startSOAP(t *testing.T, m *core.Manager, name string) (*core.SOAPServer, *cde.Client, *dyn.Class, dyn.MemberID) {
	t.Helper()
	class, addID := newCalcClass(t, name)
	srv, err := m.Register(class, core.TechSOAP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	srv.Publisher().PublishNow()
	srv.Publisher().WaitIdle()
	client, err := cde.Dial(context.Background(), srv.InterfaceURL(), &cde.DialOptions{Binding: "SOAP"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	return srv.(*core.SOAPServer), client, class, addID
}

func startCORBA(t *testing.T, m *core.Manager, name string) (*core.CORBAServer, *cde.Client, *dyn.Class, dyn.MemberID) {
	t.Helper()
	class, addID := newCalcClass(t, name)
	srv, err := m.Register(class, core.TechCORBA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	srv.Publisher().PublishNow()
	srv.Publisher().WaitIdle()
	cs := srv.(*core.CORBAServer)
	client, err := cde.Dial(context.Background(), cs.InterfaceURL(), &cde.DialOptions{Binding: "CORBA", AuxURL: cs.IORURL()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	return cs, client, class, addID
}

// TestFigure1SOAPFlow walks every arrow of the paper's Figure 1: WSDL
// publication, client-side WSDL compilation, SOAP request, SOAP response.
func TestFigure1SOAPFlow(t *testing.T) {
	m := newManager(t)
	_, client, _, _ := startSOAP(t, m, "CalcS")

	if client.Technology() != "SOAP" {
		t.Errorf("technology = %s", client.Technology())
	}
	got, err := client.CallContext(context.Background(), "add", dyn.Int32Value(20), dyn.Int32Value(22))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int32() != 42 {
		t.Errorf("add = %v", got)
	}
	// Composite types over the wire.
	seq, err := client.CallContext(context.Background(), "wrap", dyn.StringValue("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if seq.Len() != 1 {
		t.Fatalf("wrap returned %d notes", seq.Len())
	}
	if text, _ := seq.Index(0).Field("text"); text.Str() != "hello" {
		t.Errorf("note text = %v", text)
	}
}

// TestFigure2CORBAFlow walks every arrow of Figure 2: IOR + IDL fetch,
// client ORB initialization, IIOP request/response.
func TestFigure2CORBAFlow(t *testing.T) {
	m := newManager(t)
	_, client, _, _ := startCORBA(t, m, "CalcC")

	if client.Technology() != "CORBA" {
		t.Errorf("technology = %s", client.Technology())
	}
	got, err := client.CallContext(context.Background(), "add", dyn.Int32Value(20), dyn.Int32Value(22))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int32() != 42 {
		t.Errorf("add = %v", got)
	}
	seq, err := client.CallContext(context.Background(), "wrap", dyn.StringValue("bonjour"))
	if err != nil {
		t.Fatal(err)
	}
	if seq.Len() != 1 {
		t.Fatalf("wrap returned %d notes", seq.Len())
	}
	if text, _ := seq.Index(0).Field("text"); text.Str() != "bonjour" {
		t.Errorf("note text = %v", text)
	}
}

// TestNonDistributedInvisible: methods without the 'distributed' modifier
// are absent from published interfaces and unreachable remotely.
func TestNonDistributedInvisible(t *testing.T) {
	m := newManager(t)
	_, client, _, _ := startSOAP(t, m, "CalcND")
	if _, err := client.CallContext(context.Background(), "internal"); !errors.Is(err, cde.ErrNoSuchStub) {
		t.Errorf("internal should be invisible: %v", err)
	}
}

// TestSOAPServerNotInitialized reproduces Section 5.1.3: before the class
// instance exists, the handler replies with the 'Server not initialized'
// fault.
func TestSOAPServerNotInitialized(t *testing.T) {
	m := newManager(t)
	class, _ := newCalcClass(t, "ColdS")
	srv, err := m.Register(class, core.TechSOAP)
	if err != nil {
		t.Fatal(err)
	}
	ss := srv.(*core.SOAPServer)
	if ss.Active() {
		t.Error("server should be inactive before CreateInstance")
	}

	env, err := soap.BuildRequest("urn:ColdS", "add", []soap.NamedValue{
		{Name: "a", Value: dyn.Int32Value(1)}, {Name: "b", Value: dyn.Int32Value(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ss.Endpoint(), "text/xml", strings.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	parsed, err := soap.ParseResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Fault == nil || parsed.Fault.String != soap.FaultServerNotInitialized {
		t.Errorf("fault = %+v", parsed.Fault)
	}
	if ss.CallStats().Inactive != 1 {
		t.Errorf("stats = %+v", ss.CallStats())
	}
}

// TestCORBAServerNotInitialized: the CORBA path's analogue delivers the
// message as a generic application exception.
func TestCORBAServerNotInitialized(t *testing.T) {
	m := newManager(t)
	class, _ := newCalcClass(t, "ColdC")
	srv, err := m.Register(class, core.TechCORBA)
	if err != nil {
		t.Fatal(err)
	}
	cs := srv.(*core.CORBAServer)
	client, err := cde.Dial(context.Background(), cs.InterfaceURL(), &cde.DialOptions{Binding: "CORBA", AuxURL: cs.IORURL()})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	_, err = client.CallContext(context.Background(), "add", dyn.Int32Value(1), dyn.Int32Value(2))
	if err == nil || !strings.Contains(err.Error(), core.FaultTextServerNotInitialized) {
		t.Errorf("cold CORBA call: %v", err)
	}
}

// TestMalformedSOAPRequest: Section 5.1.3's 'Malformed SOAP Request' fault.
func TestMalformedSOAPRequest(t *testing.T) {
	m := newManager(t)
	ss, _, _, _ := startSOAP(t, m, "CalcMF")
	resp, err := http.Post(ss.Endpoint(), "text/xml", strings.NewReader("this is not SOAP"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	parsed, err := soap.ParseResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Fault == nil || parsed.Fault.String != soap.FaultMalformedRequest {
		t.Errorf("fault = %+v", parsed.Fault)
	}
	// A body over the 16 MiB cap is malformed as a whole: a complete call
	// padded past the cap must not be cut at the cap and dispatched.
	env, err := soap.BuildRequest("urn:CalcMF", "add", []soap.NamedValue{
		{Name: "a", Value: dyn.Int32Value(1)}, {Name: "b", Value: dyn.Int32Value(2)}})
	if err != nil {
		t.Fatal(err)
	}
	calls := ss.CallStats().Calls
	for _, declare := range []bool{true, false} {
		var big io.Reader = strings.NewReader(env + strings.Repeat(" ", 16<<20))
		if !declare { // chunked: the cap has to be found by reading
			big = io.MultiReader(big)
		}
		resp, err := http.Post(ss.Endpoint(), "text/xml", big)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		parsed, err := soap.ParseResponse(body)
		if err != nil || parsed.Fault == nil || parsed.Fault.String != soap.FaultMalformedRequest {
			t.Errorf("oversize body (declared length %v): %+v, %v", declare, parsed, err)
		}
		if resp.ContentLength != int64(len(body)) {
			t.Errorf("fault declares %d bytes, carries %d", resp.ContentLength, len(body))
		}
	}
	if got := ss.CallStats().Calls; got != calls {
		t.Errorf("oversize bodies dispatched %d calls", got-calls)
	}
	// GET is rejected outright.
	getResp, err := http.Get(ss.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	_ = getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", getResp.StatusCode)
	}
}

// TestLiveMethodAddition: the server developer adds a distributed method
// while client and server run; the client picks it up without restarting.
func TestLiveMethodAddition(t *testing.T) {
	for _, tech := range []core.Technology{core.TechSOAP, core.TechCORBA} {
		t.Run(string(tech), func(t *testing.T) {
			m := newManager(t)
			var client *cde.Client
			var class *dyn.Class
			var srv core.Server
			if tech == core.TechSOAP {
				srv_, c, cl, _ := startSOAP(t, m, "LiveAdd"+string(tech))
				srv, client, class = srv_, c, cl
			} else {
				srv_, c, cl, _ := startCORBA(t, m, "LiveAdd"+string(tech))
				srv, client, class = srv_, c, cl
			}

			if _, err := client.CallContext(context.Background(), "shout", dyn.StringValue("x")); !errors.Is(err, cde.ErrNoSuchStub) {
				t.Fatalf("pre-addition call: %v", err)
			}

			if _, err := class.AddMethod(dyn.MethodSpec{
				Name:        "shout",
				Params:      []dyn.Param{{Name: "s", Type: dyn.StringT}},
				Result:      dyn.StringT,
				Distributed: true,
				Body: func(_ *dyn.Instance, args []dyn.Value) (dyn.Value, error) {
					return dyn.StringValue(strings.ToUpper(args[0].Str())), nil
				},
			}); err != nil {
				t.Fatal(err)
			}
			srv.Publisher().PublishNow()
			srv.Publisher().WaitIdle()

			got, err := client.CallContext(context.Background(), "shout", dyn.StringValue("live"))
			if err != nil {
				t.Fatal(err)
			}
			if got.Str() != "LIVE" {
				t.Errorf("shout = %v", got)
			}
		})
	}
}

// TestRecencyGuarantee is the paper's central correctness property
// (Section 6): after a call fails with "Non Existent Method", the client's
// refreshed interface view is at least as recent as the interface the
// server used to process the call — the signature change is visible.
func TestRecencyGuarantee(t *testing.T) {
	for _, tech := range []core.Technology{core.TechSOAP, core.TechCORBA} {
		t.Run(string(tech), func(t *testing.T) {
			m := newManager(t)
			var client *cde.Client
			var class *dyn.Class
			var addID dyn.MemberID
			if tech == core.TechSOAP {
				_, c, cl, id := startSOAP(t, m, "Rec"+string(tech))
				client, class, addID = c, cl, id
			} else {
				_, c, cl, id := startCORBA(t, m, "Rec"+string(tech))
				client, class, addID = c, cl, id
			}

			// The server developer renames add → plus. The stability timer
			// is armed but we do NOT wait for it: the published document is
			// stale when the client calls.
			if err := class.RenameMethod(addID, "plus"); err != nil {
				t.Fatal(err)
			}
			verAfterRename := class.InterfaceVersion()

			_, err := client.CallContext(context.Background(), "add", dyn.Int32Value(1), dyn.Int32Value(2))
			var stale *cde.StaleMethodError
			if !errors.As(err, &stale) {
				t.Fatalf("stale call: %v", err)
			}
			// The guarantee: by the time the exception reaches the caller,
			// the client's view reflects an interface at least as recent as
			// the one that processed the call.
			if stale.RefreshedDescriptorVersion < verAfterRename {
				t.Errorf("client refreshed to version %d < server version %d",
					stale.RefreshedDescriptorVersion, verAfterRename)
			}
			view := client.Interface()
			if _, ok := view.Lookup("plus"); !ok {
				t.Error("rename must be visible in the client's refreshed view")
			}
			if _, ok := view.Lookup("add"); ok {
				t.Error("stale name must be gone from the refreshed view")
			}
			// The debugger recorded the failure with the new signature
			// absent for the old name.
			ex, ok := client.Debugger().Last()
			if !ok || ex.Method != "add" {
				t.Errorf("debugger = %+v, %v", ex, ok)
			}

			// And the call now works under its new name.
			got, err := client.CallContext(context.Background(), "plus", dyn.Int32Value(1), dyn.Int32Value(2))
			if err != nil || got.Int32() != 3 {
				t.Errorf("plus = %v, %v", got, err)
			}
		})
	}
}

// TestTryAgainFlow reproduces the Section 6 edge case: the server developer
// restores the original signature during/after the forced publication; the
// client's 'try again' re-executes and normal execution resumes.
func TestTryAgainFlow(t *testing.T) {
	m := newManager(t)
	_, client, class, addID := startSOAP(t, m, "TryAgain")

	if err := class.RenameMethod(addID, "plus"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.CallContext(context.Background(), "add", dyn.Int32Value(2), dyn.Int32Value(3)); !errors.Is(err, cde.ErrStaleMethod) {
		t.Fatalf("expected stale error, got %v", err)
	}
	// Server developer puts the signature back.
	if err := class.RenameMethod(addID, "add"); err != nil {
		t.Fatal(err)
	}
	srv, _ := m.Server("TryAgain")
	srv.Publisher().PublishNow()
	srv.Publisher().WaitIdle()

	got, err := client.Debugger().TryAgain()
	if err != nil {
		t.Fatalf("TryAgain: %v", err)
	}
	if got.Int32() != 5 {
		t.Errorf("TryAgain result = %v", got)
	}
}

// TestApplicationErrorsPropagate: a method body error reaches the client as
// a fault/exception without disturbing the live-update machinery.
func TestApplicationErrorsPropagate(t *testing.T) {
	for _, tech := range []core.Technology{core.TechSOAP, core.TechCORBA} {
		t.Run(string(tech), func(t *testing.T) {
			m := newManager(t)
			var client *cde.Client
			var class *dyn.Class
			if tech == core.TechSOAP {
				_, c, cl, _ := startSOAP(t, m, "App"+string(tech))
				client, class = c, cl
			} else {
				_, c, cl, _ := startCORBA(t, m, "App"+string(tech))
				client, class = c, cl
			}
			if _, err := class.AddMethod(dyn.MethodSpec{
				Name:        "boom",
				Distributed: true,
				Body: func(*dyn.Instance, []dyn.Value) (dyn.Value, error) {
					return dyn.Value{}, errors.New("kaboom")
				},
			}); err != nil {
				t.Fatal(err)
			}
			srv, _ := m.Server("App" + string(tech))
			srv.Publisher().PublishNow()
			srv.Publisher().WaitIdle()

			_, err := client.CallContext(context.Background(), "boom")
			if err == nil || !strings.Contains(err.Error(), "kaboom") {
				t.Errorf("boom = %v", err)
			}
			if errors.Is(err, cde.ErrStaleMethod) {
				t.Error("app error must not be treated as stale")
			}
		})
	}
}

// TestSingleInstanceRule: Section 5.4's single-instance constraint.
func TestSingleInstanceRule(t *testing.T) {
	m := newManager(t)
	srv, _, _, _ := startSOAP(t, m, "Single")
	if _, err := srv.CreateInstance(); err == nil {
		t.Error("second CreateInstance must fail")
	}
	if srv.Instance() == nil {
		t.Error("Instance() should return the live instance")
	}
}

// TestDuplicateRegistrationRejected: one manager, one server per class.
func TestDuplicateRegistrationRejected(t *testing.T) {
	m := newManager(t)
	class, _ := newCalcClass(t, "Dup")
	if _, err := m.Register(class, core.TechSOAP); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Register(class, core.TechCORBA); err == nil {
		t.Error("duplicate registration must fail")
	}
	if _, err := m.Register(dyn.NewClass("Other"), core.Technology("RMI-NG")); err == nil {
		t.Error("unknown technology must fail")
	}
	if _, ok := m.Server("Dup"); !ok {
		t.Error("Server lookup failed")
	}
	if len(m.Servers()) != 1 {
		t.Errorf("Servers() = %d", len(m.Servers()))
	}
}

// TestServerCloseUnpublishes: closing a server frees its endpoint path and
// class slot so it can be re-registered (live development tears things
// down and rebuilds them).
func TestServerCloseAllowsReRegistration(t *testing.T) {
	m := newManager(t)
	ss, _, class, _ := startSOAP(t, m, "Recycle")
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ss.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if _, err := ss.CreateInstance(); err == nil {
		t.Error("CreateInstance after close must fail")
	}
	if _, err := m.Register(class, core.TechCORBA); err != nil {
		t.Errorf("re-registration after close: %v", err)
	}
}

// TestConcurrentCallsDuringLiveEdits hammers a SOAP server with concurrent
// calls while the interface is being edited; every reply must be either a
// correct result or a clean stale-method error (never a hang or garbage).
func TestConcurrentCallsDuringLiveEdits(t *testing.T) {
	m := newManager(t)
	_, client, class, addID := startSOAP(t, m, "Storm")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := client.CallContext(context.Background(), "add", dyn.Int32Value(2), dyn.Int32Value(2))
				switch {
				case err == nil:
					if got.Int32() != 4 {
						errCh <- errors.New("wrong result " + got.String())
						return
					}
				case errors.Is(err, cde.ErrStaleMethod), errors.Is(err, cde.ErrNoSuchStub):
					// acceptable during renames
				default:
					errCh <- err
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if err := class.RenameMethod(addID, "plus"); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
		if err := class.RenameMethod(addID, "add"); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestFigure6Hierarchy pins the class hierarchy: both technologies expose
// the same technology-independent surfaces.
func TestFigure6Hierarchy(t *testing.T) {
	m := newManager(t)
	ss, _, _, _ := startSOAP(t, m, "HierS")
	cs, _, _, _ := startCORBA(t, m, "HierC")

	servers := []core.Server{ss, cs}
	for _, s := range servers {
		if s.Publisher() == nil {
			t.Errorf("%s: no publisher", s.Technology())
		}
		if s.Class() == nil {
			t.Errorf("%s: no class", s.Technology())
		}
		if s.InterfaceURL() == "" {
			t.Errorf("%s: no interface URL", s.Technology())
		}
	}
	if !ss.Active() || !cs.Active() {
		t.Error("both servers should be active")
	}
	if ss.Technology() != core.TechSOAP || cs.Technology() != core.TechCORBA {
		t.Error("technology tags")
	}
}

// TestManagerCloseShutsEverything: Close is idempotent and terminal.
func TestManagerCloseShutsEverything(t *testing.T) {
	m, err := core.NewManager(core.Config{Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ssrv, _, _, _ := startSOAP(t, m, "Bye")
	_ = ssrv
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if _, err := m.Register(dyn.NewClass("Late"), core.TechSOAP); err == nil {
		t.Error("register after close must fail")
	}
}
