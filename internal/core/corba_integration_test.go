package core_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"livedev/internal/cde"
	"livedev/internal/dyn"
)

// TestConcurrentCORBACallsDuringLiveEdits is the CORBA analogue of the
// SOAP storm test: concurrent IIOP calls race live renames; every reply is
// either correct or a clean stale error.
func TestConcurrentCORBACallsDuringLiveEdits(t *testing.T) {
	m := newManager(t)
	_, client, class, addID := startCORBA(t, m, "CStorm")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 64)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := client.CallContext(context.Background(), "add", dyn.Int32Value(3), dyn.Int32Value(4))
				switch {
				case err == nil:
					if got.Int32() != 7 {
						errCh <- errors.New("wrong result " + got.String())
						return
					}
				case errors.Is(err, cde.ErrStaleMethod), errors.Is(err, cde.ErrNoSuchStub):
					// fine during renames
				default:
					errCh <- err
					return
				}
			}
		}()
	}
	for i := 0; i < 15; i++ {
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

// TestAutoRefreshRegularUpdatePath exercises Figure 8's "regular update"
// edge: with AutoRefresh running, a server-side change reaches the client
// without any stale call at all.
func TestAutoRefreshRegularUpdatePath(t *testing.T) {
	m := newManager(t)
	_, client, class, _ := startSOAP(t, m, "AutoR")

	stopRefresh := client.AutoRefresh(5 * time.Millisecond)
	defer stopRefresh()

	if _, err := class.AddMethod(dyn.MethodSpec{
		Name:        "fresh",
		Result:      dyn.StringT,
		Distributed: true,
		Body: func(*dyn.Instance, []dyn.Value) (dyn.Value, error) {
			return dyn.StringValue("f"), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	srv, _ := m.Server("AutoR")
	srv.Publisher().PublishNow()
	srv.Publisher().WaitIdle()

	deadline := time.After(5 * time.Second)
	for {
		if _, ok := client.Interface().Lookup("fresh"); ok {
			break
		}
		select {
		case <-deadline:
			t.Fatal("regular update never delivered the new method")
		case <-time.After(2 * time.Millisecond):
		}
	}
	// No stale faults were involved.
	if client.Stats().StaleFaults != 0 {
		t.Errorf("stats = %+v", client.Stats())
	}
	if v, err := client.CallContext(context.Background(), "fresh"); err != nil || v.Str() != "f" {
		t.Errorf("fresh = %v, %v", v, err)
	}
}

// TestInterfaceServerServesBothSubsystems pins the Section 5.2 note that
// "the same Interface Server is used by both subsystems for simplicity":
// one manager's interface server hosts WSDL, IDL and IOR documents.
func TestInterfaceServerServesBothSubsystems(t *testing.T) {
	m := newManager(t)
	startSOAP(t, m, "ShareS")
	startCORBA(t, m, "ShareC")

	paths := m.Store().Paths()
	var hasWSDL, hasIDL, hasIOR bool
	for _, p := range paths {
		switch {
		case p == "/wsdl/ShareS.wsdl":
			hasWSDL = true
		case p == "/idl/ShareC.idl":
			hasIDL = true
		case p == "/ior/ShareC.ior":
			hasIOR = true
		}
	}
	if !hasWSDL || !hasIDL || !hasIOR {
		t.Errorf("shared interface server paths = %v", paths)
	}
}
