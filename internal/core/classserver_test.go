package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"livedev/internal/clock"
	"livedev/internal/dyn"
)

// White-box tests of the one live-call gate, ClassServer.Call, with no
// transport and no manager: a resolve here is what a binding's codec would
// have produced.

// newGateUnderTest wires a ClassServer to a class and a publisher directly.
// The publisher has published the class's initial interface and its timer
// effectively never fires, so only forced publication can publish again.
func newGateUnderTest(t *testing.T, activeOnly bool) (*ClassServer, *dyn.Class, *DLPublisher) {
	t.Helper()
	c := dyn.NewClass("H")
	if _, err := c.AddMethod(dyn.MethodSpec{
		Name:        "double",
		Params:      []dyn.Param{{Name: "n", Type: dyn.Int32T}},
		Result:      dyn.Int32T,
		Distributed: true,
		Body: func(_ *dyn.Instance, args []dyn.Value) (dyn.Value, error) {
			return dyn.Int32Value(2 * args[0].Int32()), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	pub := NewDLPublisher(c, time.Hour, clock.Real{}, func(dyn.InterfaceDescriptor) error { return nil })
	t.Cleanup(pub.Close)
	pub.PublishNow()
	pub.WaitIdle()
	return &ClassServer{class: c, pub: pub, activeOnly: activeOnly}, c, pub
}

// request is the resolve of a well-formed request for method(args...): it
// fits when the live interface has the method with those parameter types.
func request(method string, args ...dyn.Value) Resolve {
	return func(live dyn.InterfaceDescriptor) (string, []dyn.Value, error) {
		sig, ok := live.Lookup(method)
		if !ok || len(args) != len(sig.Params) {
			return method, nil, ErrMisfit
		}
		for i, p := range sig.Params {
			if !args[i].Type().Equal(p.Type) {
				return method, nil, ErrMisfit
			}
		}
		return method, args, nil
	}
}

// forced is how often the publisher was asked to make itself current.
func forced(pub *DLPublisher) uint64 {
	st := pub.Stats()
	return st.Forced + st.ForcedNoop
}

func TestHandlerStatsCounters(t *testing.T) {
	s, _, pub := newGateUnderTest(t, false)
	ctx := context.Background()

	// Before the instance exists every request is refused unread — a stale
	// one included, so an inactive server never forces publication.
	if s.Active() {
		t.Fatal("server should be inactive before CreateInstance")
	}
	for _, r := range []Resolve{request("double", dyn.Int32Value(2)), request("ghost")} {
		rep := s.Call(ctx, func(live dyn.InterfaceDescriptor) (string, []dyn.Value, error) {
			t.Error("an inactive server resolved a request")
			return r(live)
		})
		if rep.Outcome != OutcomeInactive {
			t.Fatalf("inactive outcome = %v", rep.Outcome)
		}
	}
	if n := forced(pub); n != 0 {
		t.Errorf("inactive server consulted the publisher %d times", n)
	}

	if _, err := s.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	if !s.Active() {
		t.Fatal("server should be active")
	}
	if _, err := s.CreateInstance(); err == nil {
		t.Error("a second instance must be refused")
	}

	rep := s.Call(ctx, request("double", dyn.Int32Value(21)))
	if rep.Outcome != OutcomeOK || rep.Method != "double" || rep.Value.Int32() != 42 {
		t.Errorf("double = %+v", rep)
	}

	unreadable := errors.New("not a request")
	rep = s.Call(ctx, func(dyn.InterfaceDescriptor) (string, []dyn.Value, error) { return "", nil, unreadable })
	if rep.Outcome != OutcomeMalformed || !errors.Is(rep.Err, unreadable) {
		t.Errorf("malformed = %+v", rep)
	}
	if n := forced(pub); n != 0 {
		t.Errorf("a malformed request consulted the publisher %d times", n)
	}

	rep = s.Call(ctx, request("ghost"))
	if rep.Outcome != OutcomeStale || rep.Method != "ghost" {
		t.Errorf("stale = %+v", rep)
	}
	if n := forced(pub); n != 1 {
		t.Errorf("a stale call consulted the publisher %d times, want 1", n)
	}

	if st := s.CallStats(); st != (CallStats{Calls: 1, StaleCalls: 1, Malformed: 1, Inactive: 2}) {
		t.Errorf("stats = %+v", st)
	}
}

func TestHandlerAppFaultCounted(t *testing.T) {
	s, c, _ := newGateUnderTest(t, false)
	boom := errors.New("boom")
	if _, err := c.AddMethod(dyn.MethodSpec{
		Name:        "bad",
		Distributed: true,
		Body:        func(*dyn.Instance, []dyn.Value) (dyn.Value, error) { return dyn.Value{}, boom },
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	rep := s.Call(context.Background(), request("bad"))
	if rep.Outcome != OutcomeAppFault || !errors.Is(rep.Err, boom) {
		t.Fatalf("app fault = %+v", rep)
	}
	if st := s.CallStats(); st != (CallStats{AppFaults: 1}) {
		t.Errorf("stats = %+v", st)
	}
}

func TestHandlerArityMismatchIsStale(t *testing.T) {
	s, _, pub := newGateUnderTest(t, false)
	if _, err := s.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]Resolve{
		"one argument too many": request("double", dyn.Int32Value(1), dyn.Int32Value(2)),
		"one argument too few":  request("double"),
		"wrong argument type":   request("double", dyn.StringValue("not-an-int")),
	} {
		if rep := s.Call(context.Background(), r); rep.Outcome != OutcomeStale {
			t.Errorf("%s: outcome = %v", name, rep.Outcome)
		}
	}
	if st := s.CallStats(); st != (CallStats{StaleCalls: 3}) {
		t.Errorf("stats = %+v", st)
	}
	if n := forced(pub); n != 3 {
		t.Errorf("publisher consulted %d times, want 3", n)
	}
}

// TestCallInterfaceChangedBeforeDispatch: the request fits the interface it
// was resolved against, but the method is renamed before dispatch. The
// dispatch table refuses it and the call takes the stale path — once.
func TestCallInterfaceChangedBeforeDispatch(t *testing.T) {
	s, c, pub := newGateUnderTest(t, false)
	if _, err := s.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	id, _ := c.MethodIDByName("double")
	rep := s.Call(context.Background(), func(live dyn.InterfaceDescriptor) (string, []dyn.Value, error) {
		method, args, err := request("double", dyn.Int32Value(1))(live)
		if err != nil {
			t.Errorf("the request should fit the interface it was resolved against: %v", err)
		}
		if err := c.RenameMethod(id, "twice"); err != nil {
			t.Error(err)
		}
		return method, args, err
	})
	if rep.Outcome != OutcomeStale {
		t.Fatalf("outcome = %v", rep.Outcome)
	}
	if st := s.CallStats(); st != (CallStats{StaleCalls: 1}) {
		t.Errorf("stats = %+v", st)
	}
	// The rename armed the timer, so the one forced publication was a real one
	// and the published interface is the renamed one by the time Call returns.
	if st := pub.Stats(); st.Forced != 1 || st.ForcedNoop != 0 {
		t.Errorf("publisher stats = %+v", st)
	}
	if got, want := pub.PublishedVersion(), c.InterfaceVersion(); got != want {
		t.Errorf("published version %d, class is at %d", got, want)
	}
}

// TestCallActivePublishingOnlySkipsForcedPublication: the Figure 7 ablation
// reports the stale call without making the published interface current.
func TestCallActivePublishingOnlySkipsForcedPublication(t *testing.T) {
	s, c, pub := newGateUnderTest(t, true)
	if _, err := s.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	id, _ := c.MethodIDByName("double")
	if err := c.RenameMethod(id, "twice"); err != nil {
		t.Fatal(err)
	}
	if rep := s.Call(context.Background(), request("double", dyn.Int32Value(1))); rep.Outcome != OutcomeStale {
		t.Fatalf("outcome = %v", rep.Outcome)
	}
	if n := forced(pub); n != 0 {
		t.Errorf("publisher consulted %d times under ActivePublishingOnly", n)
	}
	if pub.PublishedVersion() == c.InterfaceVersion() {
		t.Error("the published interface should still be the stale one")
	}
	if st := s.CallStats(); st != (CallStats{StaleCalls: 1}) {
		t.Errorf("stats = %+v", st)
	}
}

// TestCallCancelledContextDispatchesNothing: a caller that is gone by the
// time its request is resolved gets no method run on its behalf.
func TestCallCancelledContextDispatchesNothing(t *testing.T) {
	s, c, _ := newGateUnderTest(t, false)
	ran := false
	if _, err := c.AddMethod(dyn.MethodSpec{
		Name:        "mark",
		Distributed: true,
		Body: func(*dyn.Instance, []dyn.Value) (dyn.Value, error) {
			ran = true
			return dyn.VoidValue(), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep := s.Call(ctx, request("mark"))
	if rep.Outcome != OutcomeAbandoned || !errors.Is(rep.Err, context.Canceled) {
		t.Errorf("abandoned = %+v", rep)
	}
	if ran {
		t.Error("the method ran for a caller that was gone")
	}
	if st := s.CallStats(); st != (CallStats{}) {
		t.Errorf("an abandoned call was counted: %+v", st)
	}
}

// TestStaleCallStallsIncoming verifies the Section 5.7 stall from both
// sides of the write gate: a stale call forces publication only once every
// method body already running has returned, and while it is inside forced
// publication new calls block on the gate until it completes.
func TestStaleCallStallsIncoming(t *testing.T) {
	c := dyn.NewClass("Stall")
	bodyStarted, bodyRelease := make(chan struct{}), make(chan struct{})
	if _, err := c.AddMethod(dyn.MethodSpec{
		Name:        "slow",
		Distributed: true,
		Body: func(*dyn.Instance, []dyn.Value) (dyn.Value, error) {
			close(bodyStarted)
			<-bodyRelease
			return dyn.VoidValue(), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddMethod(dyn.MethodSpec{
		Name:        "op",
		Result:      dyn.Int32T,
		Distributed: true,
		Body:        func(*dyn.Instance, []dyn.Value) (dyn.Value, error) { return dyn.Int32Value(7), nil },
	}); err != nil {
		t.Fatal(err)
	}
	genStarted, genRelease := make(chan struct{}), make(chan struct{})
	pub := NewDLPublisher(c, time.Hour, clock.Real{}, func(dyn.InterfaceDescriptor) error {
		close(genStarted)
		<-genRelease
		return nil
	})
	defer pub.Close()
	s := &ClassServer{class: c, pub: pub}
	if _, err := s.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	call := func(method string) <-chan Outcome {
		done := make(chan Outcome, 1) // the test may have failed and gone by the time the call returns
		go func() { done <- s.Call(ctx, request(method)).Outcome }()
		return done
	}
	stillRunning := func(what string, done <-chan Outcome) {
		t.Helper()
		select {
		case o := <-done:
			t.Fatalf("%s returned early (%v)", what, o)
		case <-time.After(30 * time.Millisecond):
		}
	}
	finishes := func(what string, done <-chan Outcome, want Outcome) {
		t.Helper()
		select {
		case o := <-done:
			if o != want {
				t.Errorf("%s: outcome %v, want %v", what, o, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s hung", what)
		}
	}

	reached := func(what string, ch <-chan struct{}) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never happened", what)
		}
	}

	slow := call("slow")
	reached("the slow body starting", bodyStarted)

	// Arm the timer (an unpublished edit) so the stale call must force a
	// generation, which we hold open.
	id, _ := c.MethodIDByName("op")
	if err := c.RenameMethod(id, "op2"); err != nil {
		t.Fatal(err)
	}
	stale := call("op") // the stale name

	// The stale call waits for the running body before it publishes anything.
	stillRunning("the stale call", stale)
	select {
	case <-genStarted:
		t.Fatal("forced publication began while a method body was still running")
	default:
	}
	close(bodyRelease)
	finishes("the slow call", slow, OutcomeOK)
	reached("forced publication", genStarted) // the stale call is now inside it

	// A healthy call must stall behind the gate.
	healthy := call("op2")
	stillRunning("an incoming call during forced publication", healthy)
	stillRunning("the stale call", stale)

	close(genRelease)
	finishes("the stale call", stale, OutcomeStale)
	finishes("the stalled call", healthy, OutcomeOK)
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
