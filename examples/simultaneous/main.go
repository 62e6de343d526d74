// Simultaneous: a scripted live, simultaneous client-server development
// session (the paper's Section 6) over both technologies at once. The same
// dynamic class is evolved step by step while a SOAP client and a CORBA
// client stay connected; every server-side edit reaches both clients
// either through the regular publication path (stable-timeout) or through
// the reactive stale-call path, and the CDE debugger's 'try again'
// resumes execution after the server developer restores a signature.
//
// The session runs on the v2 API (Dial, CallContext).
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"livedev"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "simultaneous:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	mgr, err := livedev.NewManager(livedev.Config{Timeout: 80 * time.Millisecond})
	if err != nil {
		return err
	}
	defer func() { _ = mgr.Close() }()

	// The server developer starts an empty service class; SDE immediately
	// publishes a minimal interface description (paper Section 4), so
	// client development can begin before any method exists.
	makeClass := func(name string) *livedev.Class { return livedev.NewClass(name) }

	soapClass := makeClass("Tasks")
	soapSrv, err := mgr.Register(soapClass, livedev.TechSOAP)
	if err != nil {
		return err
	}
	if _, err := soapSrv.CreateInstance(); err != nil {
		return err
	}
	corbaClass := makeClass("TasksCorba")
	corbaSrv, err := mgr.Register(corbaClass, livedev.TechCORBA)
	if err != nil {
		return err
	}
	if _, err := corbaSrv.CreateInstance(); err != nil {
		return err
	}

	// Client developers connect to the minimal interfaces. Dial sniffs the
	// technology from each published document; the CORBA IOR URL comes from
	// the /idl/ <-> /ior/ publication convention (WithAuxURL would
	// override).
	soapClient, err := livedev.Dial(ctx, soapSrv.InterfaceURL())
	if err != nil {
		return err
	}
	defer func() { _ = soapClient.Close() }()
	corbaClient, err := livedev.Dial(ctx, corbaSrv.InterfaceURL())
	if err != nil {
		return err
	}
	defer func() { _ = corbaClient.Close() }()
	fmt.Printf("clients connected; SOAP sees %d methods, CORBA sees %d methods (minimal interfaces)\n",
		len(soapClient.Interface().Methods), len(corbaClient.Interface().Methods))

	// Step 1: the server developer writes the first method on both
	// classes while everything runs.
	addCount := func(class *livedev.Class) error {
		counter := 0
		_, err := class.AddMethod(livedev.MethodSpec{
			Name:        "next",
			Result:      livedev.Int32Type,
			Distributed: true,
			Body: func(*livedev.Instance, []livedev.Value) (livedev.Value, error) {
				counter++
				return livedev.Int32(int32(counter)), nil
			},
		})
		return err
	}
	if err := addCount(soapClass); err != nil {
		return err
	}
	if err := addCount(corbaClass); err != nil {
		return err
	}
	// The stability timeout elapses; the publisher pushes new documents.
	soapSrv.Publisher().PublishNow()
	soapSrv.Publisher().WaitIdle()
	corbaSrv.Publisher().PublishNow()
	corbaSrv.Publisher().WaitIdle()

	for _, c := range []*livedev.Client{soapClient, corbaClient} {
		v, err := c.CallContext(ctx, "next")
		if err != nil {
			return fmt.Errorf("%s next(): %w", c.Technology(), err)
		}
		fmt.Printf("%s client: next() = %v\n", c.Technology(), v)
	}

	// Step 2: the client developer writes a call against a method that
	// does not exist yet — in live simultaneous development the client
	// side is often ahead of the server side.
	if _, err := soapClient.CallContext(ctx, "reset"); !errors.Is(err, livedev.ErrNoSuchStub) {
		return fmt.Errorf("expected no-such-stub, got %v", err)
	}
	fmt.Println("SOAP client: reset() has no stub yet (client developer is ahead)")

	// The server developer catches up.
	if _, err := soapClass.AddMethod(livedev.MethodSpec{
		Name:        "reset",
		Distributed: true,
		Body: func(*livedev.Instance, []livedev.Value) (livedev.Value, error) {
			return livedev.Void(), nil
		},
	}); err != nil {
		return err
	}
	soapSrv.Publisher().PublishNow()
	soapSrv.Publisher().WaitIdle()
	if _, err := soapClient.CallContext(ctx, "reset"); err != nil {
		return err
	}
	fmt.Println("SOAP client: reset() works after the server developer added it")

	// Step 3: a rename with an in-flight client call exercises the
	// Figure 8 recency guarantee; the debugger records the failure and
	// 'try again' resumes after the server developer reverts.
	id, _ := corbaClass.MethodIDByName("next")
	if err := corbaClass.RenameMethod(id, "advance"); err != nil {
		return err
	}
	_, err = corbaClient.CallContext(ctx, "next")
	var stale *livedev.StaleMethodError
	if !errors.As(err, &stale) {
		return fmt.Errorf("expected stale error, got %v", err)
	}
	fmt.Printf("CORBA client: next() is stale; refreshed view shows %q\n",
		corbaClient.Interface().Methods[0].Name)

	// The server developer decides the rename was a mistake and reverts
	// during the debugging session (the Section 6 edge case).
	if err := corbaClass.RenameMethod(id, "next"); err != nil {
		return err
	}
	corbaSrv.Publisher().PublishNow()
	corbaSrv.Publisher().WaitIdle()
	v, err := corbaClient.Debugger().TryAgainContext(ctx)
	if err != nil {
		return fmt.Errorf("try again: %w", err)
	}
	fmt.Printf("CORBA client: 'try again' resumed normal execution, next() = %v\n", v)

	// Final state: both publishers were exercised through regular and
	// forced paths.
	s1 := soapSrv.Publisher().Stats()
	s2 := corbaSrv.Publisher().Stats()
	fmt.Printf("SOAP publisher:  %d published, %d forced waits, %d no-op forces\n", s1.Published, s1.Forced, s1.ForcedNoop)
	fmt.Printf("CORBA publisher: %d published, %d forced waits, %d no-op forces\n", s2.Published, s2.Forced, s2.ForcedNoop)
	return nil
}
