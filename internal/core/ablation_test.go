package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"livedev/internal/cde"
	"livedev/internal/core"
	"livedev/internal/dyn"
)

// TestActivePublishingViolatesRecency is the live counterpart of Figure 7:
// with the Section 5.7 reactive publication disabled (active publishing
// only), a stale call can return while the published interface still shows
// the OLD signature — the client refreshes and sees no change, which is
// exactly the inconsistent developer experience the paper's protocol
// eliminates. The same scenario with the protocol enabled (the default) is
// TestRecencyGuarantee in integration_test.go.
func TestActivePublishingViolatesRecency(t *testing.T) {
	for _, tech := range []core.Technology{core.TechSOAP, core.TechCORBA} {
		t.Run(string(tech), func(t *testing.T) {
			// A very long stability timeout: the regular publication path
			// will not fire during the test, isolating the reactive path.
			mgr, err := core.NewManager(core.Config{
				Timeout:              time.Hour,
				ActivePublishingOnly: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer mgr.Close()

			class := dyn.NewClass("Abl" + string(tech))
			id, err := class.AddMethod(dyn.MethodSpec{
				Name:        "op",
				Result:      dyn.Int32T,
				Distributed: true,
				Body: func(*dyn.Instance, []dyn.Value) (dyn.Value, error) {
					return dyn.Int32Value(1), nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			srv, err := mgr.Register(class, tech)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := srv.CreateInstance(); err != nil {
				t.Fatal(err)
			}

			var client *cde.Client
			if tech == core.TechSOAP {
				client, err = cde.Dial(context.Background(), srv.InterfaceURL(), &cde.DialOptions{Binding: "SOAP"})
			} else {
				cs := srv.(*core.CORBAServer)
				client, err = cde.Dial(context.Background(), cs.InterfaceURL(), &cde.DialOptions{Binding: "CORBA", AuxURL: cs.Endpoint()})
			}
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()

			// The rename happens; the timer is armed but will not fire for
			// an hour, and reactive publication is disabled.
			if err := class.RenameMethod(id, "op2"); err != nil {
				t.Fatal(err)
			}

			_, err = client.CallContext(context.Background(), "op")
			if !errors.Is(err, cde.ErrStaleMethod) {
				t.Fatalf("stale call: %v", err)
			}
			// The violation: the client refreshed, but the published
			// document still describes the OLD interface, so the change is
			// invisible — the Figure 7 pathology, live.
			view := client.Interface()
			if _, ok := view.Lookup("op2"); ok {
				t.Fatal("ablation failed: the rename is visible, but reactive publication was disabled")
			}
			if _, ok := view.Lookup("op"); !ok {
				t.Fatal("client view should still show the stale method under active publishing")
			}

			// Sanity: zero forced publications happened.
			if f := srv.Publisher().Stats().Forced; f != 0 {
				t.Errorf("forced publications = %d under active publishing", f)
			}
		})
	}
}
