package livedev_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"livedev"
)

// TestJSONBindingPluggedInViaRegistryOnly is the acceptance test for the
// binding seam: the JSON/HTTP technology is registered purely through
// livedev.RegisterBinding (no core edits), a dynamic class is published
// through it, called via livedev.Dial with document sniffing, and a live
// method edit is observed through the paper's reactive-update protocol —
// the same flow the SOAP and CORBA suites exercise.
func TestJSONBindingPluggedInViaRegistryOnly(t *testing.T) {
	livedev.RegisterBinding(livedev.JSONBinding())

	found := false
	for _, name := range livedev.Bindings() {
		if name == "JSON" {
			found = true
		}
	}
	if !found {
		t.Fatalf("JSON missing from registered bindings %v", livedev.Bindings())
	}

	greet := livedev.NewClass("Greeter")
	id, err := greet.AddMethod(livedev.MethodSpec{
		Name:        "greet",
		Params:      []livedev.Param{{Name: "who", Type: livedev.StringType}},
		Result:      livedev.StringType,
		Distributed: true,
		Body: func(_ *livedev.Instance, args []livedev.Value) (livedev.Value, error) {
			return livedev.Str("hello " + args[0].Str()), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	mgr, err := livedev.NewManager(livedev.Config{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	srv, err := mgr.Register(greet, livedev.Technology("JSON"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}

	// Dial with nothing but the interface URL: the registry's document
	// sniffing must route to the JSON binding.
	ctx := context.Background()
	client, err := livedev.Dial(ctx, srv.InterfaceURL())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if client.Technology() != "JSON" {
		t.Fatalf("sniffing picked %s, want JSON", client.Technology())
	}

	got, err := client.CallContext(ctx, "greet", livedev.Str("world"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Str() != "hello world" {
		t.Errorf("greet = %q", got.Str())
	}

	// Live edit: rename the method while the client holds the old view.
	// The stale call must come back as a StaleMethodError with the view
	// already refreshed, and the new name must work immediately.
	if err := greet.RenameMethod(id, "salute"); err != nil {
		t.Fatal(err)
	}
	_, err = client.CallContext(ctx, "greet", livedev.Str("world"))
	var stale *livedev.StaleMethodError
	if !errors.As(err, &stale) || !errors.Is(err, livedev.ErrStaleMethod) {
		t.Fatalf("want StaleMethodError, got %v", err)
	}
	if _, ok := client.Interface().Lookup("salute"); !ok {
		t.Fatal("client view should contain salute after the reactive refresh")
	}
	got, err = client.CallContext(ctx, "salute", livedev.Str("again"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Str() != "hello again" {
		t.Errorf("salute = %q", got.Str())
	}

	// The debugger recorded the failure and TryAgain fails (the method is
	// renamed), but a WithDebugger-dialed client observed the prompt; the
	// prompt hook itself is covered by the option test below.
	if _, ok := client.Debugger().Last(); !ok {
		t.Error("debugger should have recorded the stale call")
	}
}

// TestDialOptions covers WithBinding (explicit routing), WithTimeout (the
// per-call default deadline), and WithDebugger (the prompt hook).
func TestDialOptions(t *testing.T) {
	livedev.RegisterBinding(livedev.JSONBinding())

	block := make(chan struct{})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(block) }) }
	defer release()
	slow := livedev.NewClass("SlowJSON")
	_, _ = slow.AddMethod(livedev.MethodSpec{
		Name: "hang", Result: livedev.StringType, Distributed: true,
		Body: func(_ *livedev.Instance, _ []livedev.Value) (livedev.Value, error) {
			<-block
			return livedev.Str("late"), nil
		},
	})
	_, _ = slow.AddMethod(livedev.MethodSpec{
		Name: "quick", Result: livedev.StringType, Distributed: true,
		Body: func(_ *livedev.Instance, _ []livedev.Value) (livedev.Value, error) {
			return livedev.Str("ok"), nil
		},
	})

	mgr, err := livedev.NewManager(livedev.Config{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	srv, err := mgr.Register(slow, livedev.Technology("JSON"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}

	prompted := make(chan livedev.Exception, 1)
	client, err := livedev.Dial(context.Background(), srv.InterfaceURL(),
		livedev.WithBinding("JSON"),
		livedev.WithTimeout(80*time.Millisecond),
		livedev.WithDebugger(func(ex livedev.Exception) {
			select {
			case prompted <- ex:
			default:
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if got, err := client.CallContext(context.Background(), "quick"); err != nil || got.Str() != "ok" {
		t.Fatalf("quick = %v, %v", got, err)
	}

	// No explicit deadline: the WithTimeout default must bound the call.
	start := time.Now()
	_, err = client.CallContext(context.Background(), "hang")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded from the default timeout, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("default timeout fired after %v", elapsed)
	}
	// Release the parked hang body: the stale path below takes the write
	// gate, which (correctly) waits for in-flight calls to drain.
	release()

	// A stale call triggers the WithDebugger prompt.
	id, _ := slow.MethodIDByName("quick")
	if err := slow.RenameMethod(id, "swift"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.CallContext(context.Background(), "quick"); !errors.Is(err, livedev.ErrStaleMethod) {
		t.Fatalf("want stale, got %v", err)
	}
	select {
	case ex := <-prompted:
		if ex.Method != "quick" {
			t.Errorf("prompt for %q", ex.Method)
		}
	default:
		t.Error("WithDebugger prompt was not invoked")
	}
}

// TestCancellationAcrossAllBindings proves the tentpole's end-to-end
// context guarantee on every registered technology: a context cancelled
// mid-call aborts an in-flight invocation on SOAP, CORBA, JSON, and H2B
// alike, returning an error wrapping context.Canceled, promptly.
func TestCancellationAcrossAllBindings(t *testing.T) {
	livedev.RegisterBinding(livedev.JSONBinding())
	livedev.RegisterBinding(livedev.H2BBinding())

	block := make(chan struct{})
	newSlowClass := func(name string) *livedev.Class {
		c := livedev.NewClass(name)
		_, _ = c.AddMethod(livedev.MethodSpec{
			Name: "hang", Result: livedev.StringType, Distributed: true,
			Body: func(_ *livedev.Instance, _ []livedev.Value) (livedev.Value, error) {
				<-block
				return livedev.Str("late"), nil
			},
		})
		return c
	}

	mgr, err := livedev.NewManager(livedev.Config{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	// LIFO: the blocked method bodies must be released before mgr.Close
	// joins the CORBA server's handler goroutines.
	defer close(block)

	cases := []struct {
		tech livedev.Technology
		name string
	}{
		{livedev.TechSOAP, "SlowSOAP"},
		{livedev.TechCORBA, "SlowCORBA"},
		{livedev.Technology("JSON"), "SlowJSONC"},
		// A cancelled h2b call must reset its HTTP/2 stream, not linger
		// until the method body returns.
		{livedev.Technology("H2B"), "SlowH2B"},
	}
	for _, tc := range cases {
		t.Run(string(tc.tech), func(t *testing.T) {
			srv, err := mgr.Register(newSlowClass(tc.name), tc.tech)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := srv.CreateInstance(); err != nil {
				t.Fatal(err)
			}
			client, err := livedev.Dial(context.Background(), srv.InterfaceURL())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			if got := livedev.Technology(client.Technology()); got != tc.tech {
				t.Fatalf("sniffed %s, want %s", got, tc.tech)
			}

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
				t.Errorf("cancellation took %v", elapsed)
			}
		})
	}
}
