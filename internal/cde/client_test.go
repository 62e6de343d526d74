package cde

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"livedev/internal/dyn"
	"livedev/internal/ifsvr"
)

// fakeServer is a scriptable interface server plus the binding that reads
// it: it serves the interface's method names as a versioned document, and
// the Callers its binding compiles dispatch invocations to a function.
type fakeServer struct {
	url string

	mu       sync.Mutex
	desc     dyn.InterfaceDescriptor
	vers     DocVersions
	fetchErr error
	invoke   func(sig dyn.MethodSig, args []dyn.Value) (dyn.Value, error)
	fetches  int
	closed   bool
}

// errFakeStale is the fake's "Non Existent Method" reply, which it carries
// no document on.
var errFakeStale error = &StaleReply{Err: errors.New("fake: non existent method")}

func newFakeServer(t *testing.T) *fakeServer {
	f := &fakeServer{}
	f.setInterface(descWith("ping"))
	ts := httptest.NewServer(http.HandlerFunc(f.serveDoc))
	t.Cleanup(ts.Close)
	f.url = ts.URL + "/fake.doc"
	return f
}

func descWith(methods ...string) dyn.InterfaceDescriptor {
	c := dyn.NewClass("Svc")
	for _, m := range methods {
		_, _ = c.AddMethod(dyn.MethodSpec{
			Name:        m,
			Result:      dyn.StringT,
			Distributed: true,
		})
	}
	return c.Interface()
}

func (f *fakeServer) setInterface(d dyn.InterfaceDescriptor) {
	f.mu.Lock()
	f.desc = d
	f.vers.Doc++
	f.vers.Descriptor++
	f.mu.Unlock()
}

// serveDoc answers a document GET with the method names, comma-separated.
func (f *fakeServer) serveDoc(w http.ResponseWriter, _ *http.Request) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fetches++
	if f.fetchErr != nil {
		http.Error(w, f.fetchErr.Error(), http.StatusServiceUnavailable)
		return
	}
	names := make([]string, len(f.desc.Methods))
	for i, m := range f.desc.Methods {
		names[i] = m.Name
	}
	ifsvr.DocHeaders(ifsvr.Document{Version: f.vers.Doc, DescriptorVersion: f.vers.Descriptor,
		Epoch: f.vers.Epoch, Generation: f.vers.Generation}, w.Header().Set)
	_, _ = w.Write([]byte(strings.Join(names, ",")))
}

// binding compiles the fake's documents; its Callers answer through invoke.
func (f *fakeServer) binding() DocBinding {
	return DocBinding{
		Technology: "FAKE",
		Compile: func(doc ifsvr.Document, _ string) (dyn.InterfaceDescriptor, Caller, error) {
			return descWith(strings.Split(doc.Content, ",")...), fakeCaller{f}, nil
		},
		Close: func() error {
			f.mu.Lock()
			f.closed = true
			f.mu.Unlock()
			return nil
		},
	}
}

// dial connects a client to the fake through ConnectDocs.
func (f *fakeServer) dial() (*Client, error) {
	return ConnectDocs(context.Background(), f.url, nil, f.binding())
}

type fakeCaller struct{ f *fakeServer }

func (c fakeCaller) Call(_ context.Context, sig dyn.MethodSig, args []dyn.Value) (dyn.Value, error) {
	c.f.mu.Lock()
	fn := c.f.invoke
	c.f.mu.Unlock()
	if fn != nil {
		return fn(sig, args)
	}
	return dyn.StringValue("pong"), nil
}

func TestNewClientFetchesInterface(t *testing.T) {
	f := newFakeServer(t)
	c, err := f.dial()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.Interface().Lookup("ping"); !ok {
		t.Error("initial interface should contain ping")
	}
	if c.Technology() != "FAKE" {
		t.Error("Technology()")
	}
	if c.Versions().Doc != 1 {
		t.Errorf("versions = %+v", c.Versions())
	}
}

func TestNewClientFetchFailure(t *testing.T) {
	f := newFakeServer(t)
	f.fetchErr = errors.New("interface server down")
	c, err := f.dial()
	if err == nil {
		t.Fatal("connecting should fail when the initial fetch fails")
	}
	if c != nil || !f.closed {
		t.Errorf("a failed connect returned %v and left the binding open (closed=%v)", c, f.closed)
	}
}

func TestCallSuccess(t *testing.T) {
	f := newFakeServer(t)
	c, err := f.dial()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v, err := c.CallContext(context.Background(), "ping")
	if err != nil || v.Str() != "pong" {
		t.Errorf("Call = %v, %v", v, err)
	}
	if c.Stats().Calls != 1 {
		t.Errorf("stats = %+v", c.Stats())
	}
}

// countingCaller counts the calls that reach it.
type countingCaller struct{ n *atomic.Int64 }

func (c countingCaller) Call(context.Context, dyn.MethodSig, []dyn.Value) (dyn.Value, error) {
	c.n.Add(1)
	return dyn.Int32Value(3), nil
}

// TestCallClientSideTypeChecks: the client checks a call's arguments
// against the signature its view holds, for every binding, so a wrong arity
// or a wrong type is refused before the binding's Caller runs.
func TestCallClientSideTypeChecks(t *testing.T) {
	var calls atomic.Int64
	c, err := connect(context.Background(), NewDocSource("http://unused/", nil, &ifsvr.Document{Content: "add", Version: 1}), DocBinding{
		Technology: "COUNTING",
		Compile: func(ifsvr.Document, string) (dyn.InterfaceDescriptor, Caller, error) {
			cls := dyn.NewClass("Calc")
			_, err := cls.AddMethod(dyn.MethodSpec{Name: "add", Distributed: true, Result: dyn.Int32T,
				Params: []dyn.Param{{Name: "a", Type: dyn.Int32T}, {Name: "b", Type: dyn.Int32T}}})
			return cls.Interface(), countingCaller{&calls}, err
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		args []dyn.Value
		want string
	}{
		{"wrong arity", []dyn.Value{dyn.Int32Value(1)}, "cde: add takes 2 arguments, got 1"},
		{"wrong type", []dyn.Value{dyn.Int32Value(1), dyn.StringValue("x")}, "cde: add parameter b wants int32, got string"},
	} {
		if _, err := c.CallContext(ctx, "add", tc.args...); err == nil || err.Error() != tc.want {
			t.Errorf("%s: call = %v, want %q", tc.name, err, tc.want)
		}
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("%d refused calls reached the Caller", n)
	}
	if v, err := c.CallContext(ctx, "add", dyn.Int32Value(1), dyn.Int32Value(2)); err != nil || v.Int32() != 3 || calls.Load() != 1 {
		t.Errorf("a fitting call = %v, %v after %d Caller calls, want 3 after 1", v, err, calls.Load())
	}
}

func TestCallUnknownMethodRefreshesOnce(t *testing.T) {
	f := newFakeServer(t)
	c, err := f.dial()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The server gained a method the client has not seen: Call must
	// refresh and find it.
	f.setInterface(descWith("ping", "added"))
	if _, err := c.CallContext(context.Background(), "added"); err != nil {
		t.Errorf("Call(added) after server-side addition: %v", err)
	}

	// A genuinely unknown method fails with ErrNoSuchStub after refresh.
	if _, err := c.CallContext(context.Background(), "ghost"); !errors.Is(err, ErrNoSuchStub) {
		t.Errorf("Call(ghost) = %v", err)
	}
}

func TestStaleCallRefreshesBeforeDelivery(t *testing.T) {
	// The Section 6 client algorithm: when the server says "Non Existent
	// Method", the client's interface view is updated BEFORE the exception
	// reaches the caller.
	f := newFakeServer(t)
	c, err := f.dial()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Server renames ping→pong and will reject ping calls as stale.
	f.setInterface(descWith("pong"))
	f.invoke = func(sig dyn.MethodSig, _ []dyn.Value) (dyn.Value, error) {
		if sig.Name == "ping" {
			return dyn.Value{}, errFakeStale
		}
		return dyn.StringValue("ok"), nil
	}

	_, err = c.CallContext(context.Background(), "ping")
	var stale *StaleMethodError
	if !errors.As(err, &stale) {
		t.Fatalf("Call(ping) = %v, want StaleMethodError", err)
	}
	if !errors.Is(err, ErrStaleMethod) {
		t.Error("errors.Is(err, ErrStaleMethod) should hold")
	}
	if !errors.Is(err, errFakeStale) {
		t.Error("cause should be preserved in the chain")
	}
	// By delivery time the view shows the rename.
	if _, ok := c.Interface().Lookup("pong"); !ok {
		t.Error("client view must be refreshed before the exception is delivered")
	}
	if _, ok := c.Interface().Lookup("ping"); ok {
		t.Error("stale method must be gone from the refreshed view")
	}
	if stale.RefreshedDescriptorVersion != c.Versions().Descriptor {
		t.Error("error must carry the refreshed descriptor version")
	}
	if c.Stats().StaleFaults != 1 {
		t.Errorf("stats = %+v", c.Stats())
	}
	if stale.Error() == "" {
		t.Error("Error() empty")
	}
}

func TestDebuggerRecordsAndTryAgain(t *testing.T) {
	f := newFakeServer(t)
	c, err := f.dial()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var prompted []Exception
	c.Debugger().SetPrompt(func(ex Exception) { prompted = append(prompted, ex) })

	if _, ok := c.Debugger().Last(); ok {
		t.Error("no exception should be recorded yet")
	}
	if _, err := c.Debugger().TryAgain(); err == nil {
		t.Error("TryAgain with no failure should error")
	}

	// Fail a call; the debugger records it and prompts.
	var failing sync.Mutex
	shouldFail := true
	f.invoke = func(sig dyn.MethodSig, _ []dyn.Value) (dyn.Value, error) {
		failing.Lock()
		defer failing.Unlock()
		if shouldFail && sig.Name == "ping" {
			return dyn.Value{}, errFakeStale
		}
		return dyn.StringValue("recovered"), nil
	}
	if _, err := c.CallContext(context.Background(), "ping"); !errors.Is(err, ErrStaleMethod) {
		t.Fatalf("Call = %v", err)
	}
	if len(prompted) != 1 || prompted[0].Method != "ping" {
		t.Fatalf("prompted = %+v", prompted)
	}
	ex, ok := c.Debugger().Last()
	if !ok || ex.Method != "ping" {
		t.Fatalf("Last = %+v, %v", ex, ok)
	}
	// ping still exists in the (unchanged) interface, so the debugger
	// shows its current signature.
	if ex.SignatureNow == nil || ex.SignatureNow.Name != "ping" {
		t.Errorf("SignatureNow = %+v", ex.SignatureNow)
	}

	// The server developer "changes the method signature back": try again
	// resumes normal execution (Section 6's try-again flow).
	failing.Lock()
	shouldFail = false
	failing.Unlock()
	v, err := c.Debugger().TryAgain()
	if err != nil || v.Str() != "recovered" {
		t.Errorf("TryAgain = %v, %v", v, err)
	}
}

func TestRefreshNeverMovesBackwards(t *testing.T) {
	f := newFakeServer(t)
	c, err := f.dial()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v1 := c.Versions()

	f.setInterface(descWith("ping", "more"))
	if err := c.Refresh(); err != nil {
		t.Fatal(err)
	}
	v2 := c.Versions()
	if v2.Doc <= v1.Doc {
		t.Fatal("refresh should advance the doc version")
	}
	// Simulate an old in-flight fetch result arriving late: serving a
	// stale document must not regress the view. We emulate by dropping the
	// served version below the client's.
	f.mu.Lock()
	f.desc = descWith("ping")
	f.vers = DocVersions{Doc: v2.Doc - 1, Descriptor: v2.Descriptor - 1}
	f.mu.Unlock()
	if err := c.Refresh(); err != nil {
		t.Fatal(err)
	}
	if c.Versions().Doc != v2.Doc {
		t.Error("client view must not move backwards")
	}
	if _, ok := c.Interface().Lookup("more"); !ok {
		t.Error("newer view must be retained")
	}
}

func TestNonStaleErrorsPassThrough(t *testing.T) {
	f := newFakeServer(t)
	c, err := f.dial()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	appErr := errors.New("database on fire")
	f.invoke = func(dyn.MethodSig, []dyn.Value) (dyn.Value, error) {
		return dyn.Value{}, appErr
	}
	_, err = c.CallContext(context.Background(), "ping")
	if !errors.Is(err, appErr) {
		t.Errorf("Call = %v", err)
	}
	if errors.Is(err, ErrStaleMethod) {
		t.Error("app errors must not look stale")
	}
	if c.Stats().StaleFaults != 0 {
		t.Error("app errors must not count as stale faults")
	}
}

func TestAutoRefresh(t *testing.T) {
	f := newFakeServer(t)
	c, err := f.dial()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	stop := c.AutoRefresh(5 * time.Millisecond)
	f.setInterface(descWith("ping", "fresh"))
	deadline := time.After(2 * time.Second)
	for {
		if _, ok := c.Interface().Lookup("fresh"); ok {
			break
		}
		select {
		case <-deadline:
			t.Fatal("auto refresh never picked up the new interface")
		case <-time.After(2 * time.Millisecond):
		}
	}
	stop()
	stop() // idempotent
}

func TestStaleWithFailedRefreshStillDeliversStaleError(t *testing.T) {
	f := newFakeServer(t)
	c, err := f.dial()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f.invoke = func(dyn.MethodSig, []dyn.Value) (dyn.Value, error) {
		return dyn.Value{}, errFakeStale
	}
	f.mu.Lock()
	f.fetchErr = fmt.Errorf("interface server unreachable")
	f.mu.Unlock()

	_, err = c.CallContext(context.Background(), "ping")
	if !errors.Is(err, ErrStaleMethod) {
		t.Fatalf("Call = %v", err)
	}
	var stale *StaleMethodError
	if !errors.As(err, &stale) {
		t.Fatal("want StaleMethodError")
	}
	if stale.Cause == nil {
		t.Error("cause should mention the refresh failure")
	}
}

func TestInterfaceNameFromTypeID(t *testing.T) {
	cases := map[string]string{
		"IDL:CalcModule/Calc:1.0": "Calc",
		"IDL:Mail:1.0":            "Mail",
		"IDL:a/b/C:2.3":           "C",
	}
	for in, want := range cases {
		got, err := interfaceNameFromTypeID(in)
		if err != nil || got != want {
			t.Errorf("interfaceNameFromTypeID(%q) = %q, %v", in, got, err)
		}
	}
	for _, bad := range []string{"", "Calc:1.0", "IDL:", "IDL::1.0", "IDL:Mod/:1.0", "IDL:NoColon"} {
		if _, err := interfaceNameFromTypeID(bad); err == nil {
			t.Errorf("interfaceNameFromTypeID(%q) should fail", bad)
		}
	}
}

// TestEqualViewInstallsOnce: a view with the current view's (generation,
// document version) is not installed again — a Refresh that fetched version
// N before the watch stream pushed N must not fire the view listeners (a
// bridge's proxy re-sync) twice.
func TestEqualViewInstallsOnce(t *testing.T) {
	f := newFakeServer(t)
	c, err := f.dial()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var hooks int
	c.AddViewListener(func() { hooks++ })

	f.setInterface(descWith("ping", "more"))
	for i := 0; i < 2; i++ {
		if err := c.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	if hooks != 1 {
		t.Errorf("two fetches of one version fired the view listeners %d times, want 1", hooks)
	}
	if st := c.Stats(); st.Refreshes != 3 {
		t.Errorf("stats = %+v: every fetch still counts", st)
	}
}
