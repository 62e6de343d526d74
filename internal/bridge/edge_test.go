package bridge

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/soap"
)

func TestBridgeUnknownTechnology(t *testing.T) {
	backend, _, _ := startBackend(t, core.TechCORBA, nil)
	mgr, err := core.NewManager(core.Config{Timeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mgr.Close() }()
	if _, err := New(mgr, "X", backend, core.Technology("Nope")); err == nil {
		t.Error("unknown front technology should fail")
	}
}

func TestBridgeCloseIsIdempotent(t *testing.T) {
	backend, _, _ := startBackend(t, core.TechSOAP, nil)
	front, _ := startFront(t, backend, core.TechCORBA)
	if err := front.Close(); err != nil {
		t.Fatal(err)
	}
	if err := front.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

// TestBridgeTransportEdges pins the front's transport-level behaviour: the
// re-export is an ordinary managed server, so malformed and unknown-method
// requests get the standard protocol treatment.
func TestBridgeTransportEdges(t *testing.T) {
	backend, _, _ := startBackend(t, core.TechCORBA, nil)
	front, _ := startFront(t, backend, core.TechSOAP)
	endpoint := front.Server().Endpoint()

	// GET is rejected.
	resp, err := http.Get(endpoint)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", resp.StatusCode)
	}

	// Malformed body.
	resp, err = http.Post(endpoint, "text/xml", strings.NewReader("junk"))
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

	// Unknown bridged method runs the forced-publication protocol and
	// reports Non Existent Method.
	client := &soap.Client{Endpoint: endpoint, ServiceNS: "urn:InvBridge"}
	_, err = client.CallContext(t.Context(), "ghost", nil, dyn.Int32T)
	if !soap.IsNonExistentMethod(err) {
		t.Errorf("unknown bridged method: %v", err)
	}
	// Wrong arity is treated as stale-signature per the protocol.
	_, err = client.CallContext(t.Context(), "lookup", []soap.NamedValue{
		{Name: "a", Value: dyn.Int32Value(1)}, {Name: "b", Value: dyn.Int32Value(2)},
	}, dyn.Int32T)
	if !soap.IsNonExistentMethod(err) {
		t.Errorf("wrong arity through bridge: %v", err)
	}

	// Refresh is callable directly (the bridge operator's manual resync).
	if err := front.Refresh(); err != nil {
		t.Errorf("refresh: %v", err)
	}
}

// TestBridgeForwardsAppErrors: an application error thrown behind the
// bridge surfaces as the front technology's application fault.
func TestBridgeForwardsAppErrors(t *testing.T) {
	backend, class, srv := startBackend(t, core.TechCORBA, nil)
	front, _ := startFront(t, backend, core.TechSOAP)

	// Add a failing method to the backend, publish, and resync the bridge.
	if _, err := class.AddMethod(newFailingSpec()); err != nil {
		t.Fatal(err)
	}
	srv.Publisher().PublishNow()
	srv.Publisher().WaitIdle()
	if err := front.Refresh(); err != nil {
		t.Fatal(err)
	}

	endpoint := front.Server().Endpoint()
	client := &soap.Client{Endpoint: endpoint, ServiceNS: "urn:InvBridge"}
	_, err := client.CallContext(t.Context(), "explode", nil, dyn.StringT)
	if err == nil || !strings.Contains(err.Error(), "backend detonated") {
		t.Errorf("bridged app error = %v", err)
	}
}
