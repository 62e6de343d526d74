package livedev_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"livedev/internal/cde"
	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/h2b"
	"livedev/internal/ifsvr"
	"livedev/internal/jsonb"
	"livedev/internal/orb"
	"livedev/internal/soap"
)

// The conformance table: what a client can observe of the live-call
// protocol (Sections 5.1.3, 5.4, 5.6, 5.7), as scenarios-as-data executed
// against every front a call can arrive on. The protocol is implemented
// once (core.ClassServer.Call); this is the check that each binding's
// codec, transport and outcome mapper carry it to the wire unchanged.

// The client-visible error classes.
const (
	seesResult    = "result"
	seesAppFault  = "application error"
	seesStale     = "non-existent method"
	seesInactive  = "not initialized"
	seesCancelled = "cancelled"
)

// classify reduces a front's error to its class (and, for an application
// error, the message the method body failed with). SOAP and CORBA report
// their outcomes in their wire types; JSON and H2B in cde's. No two
// overlap, so one classifier serves all fronts.
func classify(err error) (class, msg string) {
	var (
		fault *soap.Fault
		oApp  *orb.AppError
		app   *cde.AppError
	)
	switch {
	case err == nil:
		return seesResult, ""
	case errors.Is(err, context.Canceled):
		return seesCancelled, ""
	case soap.IsNonExistentMethod(err), errors.Is(err, orb.ErrNonExistentMethod),
		errors.As(err, new(*cde.StaleReply)):
		return seesStale, ""
	case errors.As(err, &fault) && fault.String == soap.FaultServerNotInitialized,
		errors.As(err, &oApp) && oApp.Message == core.FaultTextServerNotInitialized,
		strings.Contains(err.Error(), "server error "+jsonb.CodeNotInitialized):
		return seesInactive, ""
	case errors.As(err, &fault):
		return seesAppFault, fault.String
	case errors.As(err, &oApp):
		return seesAppFault, oApp.Message
	case errors.As(err, &app):
		return seesAppFault, app.Message
	}
	return err.Error(), ""
}

// carriedDoc is the interface document a front's stale reply carried, nil
// if none.
func carriedDoc(err error) *ifsvr.Document {
	var (
		fault *soap.Fault
		oStal *orb.StaleError
		stale *cde.StaleReply
	)
	switch {
	case errors.As(err, &fault):
		return fault.Interface
	case errors.As(err, &oStal):
		return oStal.Interface
	case errors.As(err, &stale):
		return stale.Doc
	}
	return nil
}

// stub is a front's raw client: it encodes exactly the call it is given,
// against the signature the caller believes in — which is how a stale stub
// behaves, and what the CDE client's type checks would otherwise prevent.
type stub func(ctx context.Context, sig dyn.MethodSig, args []dyn.Value) (dyn.Value, error)

// front is one way a call reaches a managed class.
type front struct {
	name string
	tech core.Technology
	dial func(t *testing.T, srv core.Server) stub
}

var fronts = []front{
	{"SOAP", core.TechSOAP, func(_ *testing.T, srv core.Server) stub {
		c := &soap.Client{Endpoint: srv.Endpoint(), ServiceNS: "urn:" + srv.Class().Name()}
		return func(ctx context.Context, sig dyn.MethodSig, args []dyn.Value) (dyn.Value, error) {
			named := make([]soap.NamedValue, len(args))
			for i, a := range args {
				named[i] = soap.NamedValue{Name: sig.Params[i].Name, Value: a}
			}
			return c.CallContext(ctx, sig.Name, named, sig.Result)
		}
	}},
	{"CORBA", core.TechCORBA, func(t *testing.T, srv core.Server) stub {
		conn, err := orb.DialIOR(srv.(*core.CORBAServer).IOR())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		return conn.InvokeContext
	}},
	{"JSON", jsonb.Name, func(_ *testing.T, srv core.Server) stub {
		return (&jsonb.Caller{Endpoint: srv.Endpoint()}).Call
	}},
	{"H2B-http", h2b.Name, func(_ *testing.T, srv core.Server) stub {
		return (&h2b.Caller{Endpoint: srv.Endpoint()}).Call
	}},
	{"H2B-mux", h2b.Name, func(_ *testing.T, srv core.Server) stub {
		s := srv.(*h2b.Server)
		return (&h2b.Caller{Endpoint: s.Endpoint(), Mux: s.MuxAddr()}).Call
	}},
}

// scenario is one row of the table: the server's state when the call
// arrives, the call as the client's stub makes it, and everything that must
// be observable once the client has its answer.
type scenario struct {
	name string

	// Server state.
	activeOnly bool      // Config.ActivePublishingOnly, the Figure 7 ablation
	noInstance bool      // CreateInstance has not happened yet
	rename     [2]string // a live edit {from, to} the publisher has not published
	duringSlow bool      // a call to slow() is running; it is let go only after the call under test was seen to wait for it

	// The call.
	sig    dyn.MethodSig
	args   []dyn.Value
	cancel bool // the caller gives up while the method body runs

	// The observable outcome.
	sees     string         // the client-visible error class
	result   dyn.Value      // with seesResult
	message  string         // with seesAppFault
	stats    core.CallStats // CallStats delta
	forced   uint64         // PublisherStats.Forced delta: forced publications that published
	docHas   string         // in the published document by the time the client has its answer
	docLacks string         // not in it
}

// Values of every dyn kind; each gets an echo method and a row.
var (
	pointT      = dyn.MustStructOf("Point", dyn.StructField{Name: "x", Type: dyn.Float64T}, dyn.StructField{Name: "y", Type: dyn.Float64T})
	everyKindOf = []dyn.Value{
		dyn.BoolValue(true),
		dyn.CharValue('Z'),
		dyn.Int32Value(-7),
		dyn.Int64Value(1 << 40),
		dyn.Float32Value(1.5),
		dyn.Float64Value(-2.25),
		dyn.StringValue("a <b> & \"c\""),
		dyn.MustStructValue(pointT, dyn.Float64Value(1), dyn.Float64Value(2)),
		dyn.MustSequenceValue(pointT, dyn.MustStructValue(pointT, dyn.Float64Value(3), dyn.Float64Value(4))),
	}
)

func echoName(t *dyn.Type) string { return "echo_" + t.Kind().String() }

func int32Param(name string) dyn.Param { return dyn.Param{Name: name, Type: dyn.Int32T} }

var (
	addSig = dyn.MethodSig{Name: "add", Params: []dyn.Param{int32Param("a"), int32Param("b")}, Result: dyn.Int32T}
	one    = dyn.Int32Value(1)
)

func scenarios() []scenario {
	rows := []scenario{{
		name:       "call before CreateInstance",
		noInstance: true,
		sig:        addSig, args: []dyn.Value{one, one},
		sees: seesInactive, stats: core.CallStats{Inactive: 1},
	}, {
		name: "echo void",
		sig:  dyn.MethodSig{Name: "nothing", Result: dyn.Void},
		sees: seesResult, result: dyn.VoidValue(), stats: core.CallStats{Calls: 1},
	}}
	for _, v := range everyKindOf {
		rows = append(rows, scenario{
			name: "echo " + v.Type().Kind().String(),
			sig:  dyn.MethodSig{Name: echoName(v.Type()), Params: []dyn.Param{{Name: "v", Type: v.Type()}}, Result: v.Type()},
			args: []dyn.Value{v},
			sees: seesResult, result: v, stats: core.CallStats{Calls: 1},
		})
	}
	return append(rows, []scenario{{
		name: "application error",
		sig:  dyn.MethodSig{Name: "fail", Result: dyn.StringT},
		sees: seesAppFault, message: "mailbox unavailable", stats: core.CallStats{AppFaults: 1},
	}, {
		name: "unknown method",
		sig:  dyn.MethodSig{Name: "ghost", Result: dyn.Int32T},
		sees: seesStale, stats: core.CallStats{StaleCalls: 1},
	}, {
		name: "one argument too many",
		sig:  dyn.MethodSig{Name: "add", Params: []dyn.Param{int32Param("a"), int32Param("b"), int32Param("c")}, Result: dyn.Int32T},
		args: []dyn.Value{one, one, one},
		sees: seesStale, stats: core.CallStats{StaleCalls: 1},
	}, {
		name: "one argument too few",
		sig:  dyn.MethodSig{Name: "add", Params: []dyn.Param{int32Param("a")}, Result: dyn.Int32T},
		args: []dyn.Value{one},
		sees: seesStale, stats: core.CallStats{StaleCalls: 1},
	}, {
		// CDR is not self-describing: a string where an int32 belongs is
		// noticed as octets left over. The typed codecs see the type.
		name: "argument of the wrong type",
		sig:  dyn.MethodSig{Name: "add", Params: []dyn.Param{{Name: "a", Type: dyn.StringT}, int32Param("b")}, Result: dyn.Int32T},
		args: []dyn.Value{dyn.StringValue("x"), one},
		sees: seesStale, stats: core.CallStats{StaleCalls: 1},
	}, {
		name:   "rename, then a call under the old name",
		rename: [2]string{"add", "plus"},
		sig:    addSig, args: []dyn.Value{one, one},
		sees: seesStale, stats: core.CallStats{StaleCalls: 1},
		forced: 1, docHas: "plus",
	}, {
		name:       "rename, then a call under the old name, ActivePublishingOnly",
		activeOnly: true,
		rename:     [2]string{"add", "plus"},
		sig:        addSig, args: []dyn.Value{one, one},
		sees: seesStale, stats: core.CallStats{StaleCalls: 1},
		forced: 0, docLacks: "plus",
	}, {
		name:       "stale call while a slow body runs",
		duringSlow: true,
		sig:        dyn.MethodSig{Name: "ghost", Result: dyn.Int32T},
		sees:       seesStale, stats: core.CallStats{Calls: 1, StaleCalls: 1},
	}, {
		// The body was dispatched before the caller gave up, so it runs to
		// completion and is counted; only its reply has nobody to go to.
		name:   "cancelled call",
		sig:    dyn.MethodSig{Name: "slow", Result: dyn.Void},
		cancel: true,
		sees:   seesCancelled, stats: core.CallStats{Calls: 1},
	}}...)
}

// conformanceClass is the class every scenario runs against. slow() reports
// on started and then blocks until release is closed.
func conformanceClass(t *testing.T, name string, started chan<- struct{}, release <-chan struct{}) *dyn.Class {
	t.Helper()
	c := dyn.NewClass(name)
	add := func(spec dyn.MethodSpec) {
		t.Helper()
		spec.Distributed = true
		if _, err := c.AddMethod(spec); err != nil {
			t.Fatal(err)
		}
	}
	add(dyn.MethodSpec{Name: "add", Params: addSig.Params, Result: dyn.Int32T,
		Body: func(_ *dyn.Instance, a []dyn.Value) (dyn.Value, error) {
			return dyn.Int32Value(a[0].Int32() + a[1].Int32()), nil
		}})
	add(dyn.MethodSpec{Name: "nothing",
		Body: func(*dyn.Instance, []dyn.Value) (dyn.Value, error) { return dyn.VoidValue(), nil }})
	for _, v := range everyKindOf {
		add(dyn.MethodSpec{Name: echoName(v.Type()), Params: []dyn.Param{{Name: "v", Type: v.Type()}}, Result: v.Type(),
			Body: func(_ *dyn.Instance, a []dyn.Value) (dyn.Value, error) { return a[0], nil }})
	}
	add(dyn.MethodSpec{Name: "fail", Result: dyn.StringT,
		Body: func(*dyn.Instance, []dyn.Value) (dyn.Value, error) {
			return dyn.Value{}, errors.New("mailbox unavailable")
		}})
	add(dyn.MethodSpec{Name: "slow",
		Body: func(*dyn.Instance, []dyn.Value) (dyn.Value, error) {
			started <- struct{}{}
			<-release
			return dyn.VoidValue(), nil
		}})
	return c
}

func TestConformance(t *testing.T) {
	core.RegisterBinding(jsonb.New())
	core.RegisterBinding(h2b.New())
	for _, f := range fronts {
		t.Run(f.name, func(t *testing.T) {
			// One manager per configuration, a class of its own per scenario.
			// The stability timer effectively never fires: whatever gets
			// published after registration, forced publication published.
			mgrs := make(map[bool]*core.Manager)
			for _, activeOnly := range []bool{false, true} {
				mgr, err := core.NewManager(core.Config{Timeout: 30 * time.Minute, ActivePublishingOnly: activeOnly})
				if err != nil {
					t.Fatal(err)
				}
				defer mgr.Close()
				mgrs[activeOnly] = mgr
			}
			for i, sc := range scenarios() {
				t.Run(sc.name, func(t *testing.T) {
					runScenario(t, f, sc, mgrs[sc.activeOnly], fmt.Sprintf("Conf%d", i))
				})
			}
		})
	}
}

func runScenario(t *testing.T, f front, sc scenario, mgr *core.Manager, className string) {
	started, release := make(chan struct{}, 1), make(chan struct{})
	letGo := func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}
	class := conformanceClass(t, className, started, release)
	srv, err := mgr.Register(class, f.tech)
	if err != nil {
		t.Fatal(err)
	}
	// LIFO: a blocked body must be let go before Close joins the transport's
	// handler goroutines.
	defer srv.Close()
	defer letGo()
	if !sc.noInstance {
		if _, err := srv.CreateInstance(); err != nil {
			t.Fatal(err)
		}
	}
	call := f.dial(t, srv)
	within := func(what string, ch <-chan struct{}) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: still waiting after 5s", what)
		}
	}

	slowDone := make(chan struct{})
	if sc.duringSlow {
		go func() {
			defer close(slowDone)
			if _, err := call(context.Background(), dyn.MethodSig{Name: "slow", Result: dyn.Void}, nil); err != nil {
				t.Errorf("the slow call: %v", err)
			}
		}()
		within("the slow body starting", started)
	}
	if sc.rename[0] != "" {
		id, ok := class.MethodIDByName(sc.rename[0])
		if !ok {
			t.Fatalf("no method %s to rename", sc.rename[0])
		}
		if err := class.RenameMethod(id, sc.rename[1]); err != nil {
			t.Fatal(err)
		}
	}
	statsBefore, forcedBefore := srv.CallStats(), srv.Publisher().Stats().Forced

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		got     dyn.Value
		callErr error
		done    = make(chan struct{})
	)
	go func() {
		defer close(done)
		got, callErr = call(ctx, sc.sig, sc.args)
	}()
	switch {
	case sc.duringSlow:
		// Section 5.7: the stale call's forced publication waits for every
		// running body, so its reply cannot overtake the slow call.
		select {
		case <-done:
			t.Errorf("the call returned (%v) while the slow body was still running", callErr)
		case <-time.After(50 * time.Millisecond):
		}
		letGo()
		within("the slow call returning", slowDone)
	case sc.cancel:
		within("the body starting", started)
		cancel()
	}
	within("the call returning", done)

	// The document is fetched before anything else can publish: what it says
	// now is what a client reacting to the reply would read.
	var doc string
	if sc.docHas != "" || sc.docLacks != "" {
		resp, err := http.Get(srv.InterfaceURL())
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		doc = string(body)
	}
	if sc.cancel {
		letGo() // the abandoned body finishes, and is counted when it does
	}

	sees, msg := classify(callErr)
	if sees != sc.sees {
		t.Fatalf("the client sees %q (%v), want %q", sees, callErr, sc.sees)
	}
	if sc.sees == seesResult && !got.Equal(sc.result) {
		t.Errorf("result = %v, want %v", got, sc.result)
	}
	if sc.sees == seesAppFault && msg != sc.message {
		t.Errorf("application error %q, want %q", msg, sc.message)
	}
	if sc.docHas != "" && !strings.Contains(doc, sc.docHas) {
		t.Errorf("the published document does not mention %q by the time the client has its answer:\n%s", sc.docHas, doc)
	}
	if sc.docLacks != "" && strings.Contains(doc, sc.docLacks) {
		t.Errorf("the published document already mentions %q:\n%s", sc.docLacks, doc)
	}
	if sc.sees == seesStale {
		// Section 5.7's forced publication rides on the reply: the document a
		// fetch would get now, counters and all — except under the ablation,
		// which forces nothing and so vouches for nothing.
		carried := carriedDoc(callErr)
		switch published, err := ifsvr.FetchContext(context.Background(), nil, srv.InterfaceURL()); {
		case err != nil:
			t.Fatal(err)
		case sc.activeOnly && carried != nil:
			t.Errorf("the ablation's stale reply carried document version %d", carried.Version)
		case !sc.activeOnly && (carried == nil || carried.Content != published.Content || carried.Version != published.Version ||
			carried.DescriptorVersion != published.DescriptorVersion || carried.Epoch != published.Epoch || carried.Generation != published.Generation):
			t.Errorf("the stale reply carried %+v, the Interface Server serves %+v", carried, published)
		}
	}
	if n := srv.Publisher().Stats().Forced - forcedBefore; n != sc.forced {
		t.Errorf("PublisherStats.Forced moved by %d, want %d", n, sc.forced)
	}
	// Outcomes are counted before the reply is sent — except the abandoned
	// body's, which is still finishing.
	delta := func() core.CallStats {
		now := srv.CallStats()
		return core.CallStats{
			Calls:      now.Calls - statsBefore.Calls,
			AppFaults:  now.AppFaults - statsBefore.AppFaults,
			StaleCalls: now.StaleCalls - statsBefore.StaleCalls,
			Malformed:  now.Malformed - statsBefore.Malformed,
			Inactive:   now.Inactive - statsBefore.Inactive,
		}
	}
	for deadline := time.Now().Add(5 * time.Second); sc.cancel && delta() != sc.stats && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if d := delta(); d != sc.stats {
		t.Errorf("CallStats moved by %+v, want %+v", d, sc.stats)
	}
}
