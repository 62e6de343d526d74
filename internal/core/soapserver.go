package core

import (
	"errors"
	"fmt"
	"net/http"
	"sync"

	"livedev/internal/dyn"
	"livedev/internal/soap"
	"livedev/internal/wsdl"
)

// SOAPServer is the SOAP subsystem bundle for one managed class
// (Figure 4): the WSDL generator feeding the shared Interface Server via a
// DL Publisher, and the SOAP Call Handler mounted on the manager's HTTP
// endpoint server.
type SOAPServer struct {
	mgr      *Manager
	class    *dyn.Class
	pub      *DLPublisher
	handler  *SOAPCallHandler
	endpoint string // full endpoint URL
	path     string // endpoint path on the manager's SOAP server
	wsdlPath string // interface-server path of the WSDL document

	mu       sync.Mutex
	instance *dyn.Instance
	closed   bool
}

var _ Server = (*SOAPServer)(nil)

func newSOAPServer(m *Manager, class *dyn.Class) (*SOAPServer, error) {
	s := &SOAPServer{
		mgr:      m,
		class:    class,
		path:     "/soap/" + class.Name(),
		wsdlPath: "/wsdl/" + class.Name() + ".wsdl",
	}
	s.endpoint = m.HTTPBaseURL() + s.path
	s.handler = newSOAPCallHandler(class, "urn:"+class.Name(), nil)

	// "...creates the required backend components for deployment and
	// immediately publishes a basic WSDL definition" (Section 4). All the
	// publication plumbing — doc caching, the coalescing store, the forced-
	// publication flush — lives behind the manager's publication seam.
	s.pub = m.PublishInterface(class, s.wsdlPath, "text/xml",
		func(desc dyn.InterfaceDescriptor) (string, error) {
			return wsdl.Generate(desc, s.endpoint).XML()
		})
	s.handler.pub = s.pub
	s.handler.activeOnly = !m.ReactivePublication()

	m.MountHTTP(s.path, s.handler)
	return s, nil
}

// Class implements Server.
func (s *SOAPServer) Class() *dyn.Class { return s.class }

// Technology implements Server.
func (s *SOAPServer) Technology() Technology { return TechSOAP }

// Publisher implements Server.
func (s *SOAPServer) Publisher() *DLPublisher { return s.pub }

// Endpoint returns the SOAP endpoint URL.
func (s *SOAPServer) Endpoint() string { return s.endpoint }

// InterfaceURL implements Server: the WSDL document URL.
func (s *SOAPServer) InterfaceURL() string {
	return s.mgr.InterfaceBaseURL() + s.wsdlPath
}

// CallHandler returns the server's call handler.
func (s *SOAPServer) CallHandler() CallHandler { return s.handler }

// Handler returns the concrete SOAP call handler (for stats access).
func (s *SOAPServer) Handler() *SOAPCallHandler { return s.handler }

// CreateInstance implements Server.
func (s *SOAPServer) CreateInstance() (*dyn.Instance, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("core: server closed")
	}
	if s.instance != nil {
		return nil, fmt.Errorf("core: class %s already has its instance (single-instance rule, Section 5.4)", s.class.Name())
	}
	in := s.class.NewInstance()
	s.instance = in
	s.handler.Activate(in)
	return in, nil
}

// Instance implements Server.
func (s *SOAPServer) Instance() *dyn.Instance {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.instance
}

// Close implements Server.
func (s *SOAPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.mgr.UnmountHTTP(s.path)
	s.pub.Close()
	s.mgr.Store().Remove(s.wsdlPath)
	s.mgr.Unregister(s.class.Name())
	return nil
}

// CallStats counts call-handler activity.
type CallStats struct {
	// Calls counts successfully dispatched method calls.
	Calls uint64
	// AppFaults counts calls whose method body returned an error.
	AppFaults uint64
	// StaleCalls counts calls to methods missing from the live interface
	// (each one runs the Section 5.7 forced-publication protocol).
	StaleCalls uint64
	// Malformed counts unparseable requests.
	Malformed uint64
	// Inactive counts calls received before the instance existed.
	Inactive uint64
}

// SOAPCallHandler is the paper's SOAP Call Handler: "the communication end
// point that performs the SOAP to Java and Java to SOAP translation for
// remote method invocations" (Section 5.1) — here SOAP to dyn values and
// back. It is completely multithreaded (Section 5.4): requests run
// concurrently under a read-lock "gate"; the stale-method path takes the
// write lock, stalling incoming processing while publication is forced
// (Section 5.7).
type SOAPCallHandler struct {
	class      *dyn.Class
	serviceNS  string
	pub        *DLPublisher
	activeOnly bool

	gate     sync.RWMutex
	instance *dyn.Instance

	statsMu sync.Mutex
	stats   CallStats
}

var _ CallHandler = (*SOAPCallHandler)(nil)
var _ http.Handler = (*SOAPCallHandler)(nil)

func newSOAPCallHandler(class *dyn.Class, serviceNS string, pub *DLPublisher) *SOAPCallHandler {
	return &SOAPCallHandler{class: class, serviceNS: serviceNS, pub: pub}
}

// Activate implements CallHandler.
func (h *SOAPCallHandler) Activate(in *dyn.Instance) {
	h.gate.Lock()
	h.instance = in
	h.gate.Unlock()
}

// Active implements CallHandler.
func (h *SOAPCallHandler) Active() bool {
	h.gate.RLock()
	defer h.gate.RUnlock()
	return h.instance != nil
}

// Stats returns a snapshot of the handler counters.
func (h *SOAPCallHandler) Stats() CallStats {
	h.statsMu.Lock()
	defer h.statsMu.Unlock()
	return h.stats
}

func (h *SOAPCallHandler) count(f func(*CallStats)) {
	h.statsMu.Lock()
	f(&h.stats)
	h.statsMu.Unlock()
}

// ServeHTTP implements the request/response handling of Section 5.1.3.
// The request body is read into a pooled buffer (the per-request io.ReadAll
// was the largest remaining per-call allocation after PR 1). The parsed
// request's parameter handles alias that buffer; the decoded dyn values and
// the method name are copies, so the buffer recycles once the request is
// handled. Replies are rendered into and written from a pooled buffer too.
func (h *SOAPCallHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "SOAP endpoint: POST only", http.StatusMethodNotAllowed)
		return
	}
	buf := soap.GetBodyBuffer()
	defer soap.PutBodyBuffer(buf)
	// An oversize body is malformed like a truncated one: it is not parsed.
	if err := soap.ReadBody(buf, r.Body, r.ContentLength); err != nil {
		h.count(func(s *CallStats) { s.Malformed++ })
		soap.WriteFault(w, &soap.Fault{Code: "soap:Client", String: soap.FaultMalformedRequest})
		return
	}
	body := buf.Bytes()

	h.gate.RLock()
	in := h.instance
	if in == nil {
		h.gate.RUnlock()
		h.count(func(s *CallStats) { s.Inactive++ })
		soap.WriteFault(w, &soap.Fault{Code: "soap:Server", String: soap.FaultServerNotInitialized})
		return
	}

	req, err := soap.ParseRequest(body)
	if err != nil {
		h.gate.RUnlock()
		h.count(func(s *CallStats) { s.Malformed++ })
		soap.WriteFault(w, &soap.Fault{Code: "soap:Client", String: soap.FaultMalformedRequest})
		return
	}

	// "the SOAP Call Handler searches for a matching method in the current
	// server interface" — the live descriptor, not any cached one.
	iface := h.class.Interface()
	sig, ok := iface.Lookup(req.Method)
	if !ok || len(req.Params) != len(sig.Params) {
		h.gate.RUnlock()
		h.staleCall(w, req.Method)
		return
	}
	args := make([]dyn.Value, len(sig.Params))
	for i, p := range sig.Params {
		v, decErr := soap.DecodeValue(req.Params[i], p.Type)
		if decErr != nil {
			// The client encoded against a stale signature: same protocol
			// as a missing method (Section 5.6: "Client calls for stale
			// method signatures may also trigger updates").
			h.gate.RUnlock()
			h.staleCall(w, req.Method)
			return
		}
		args[i] = v
	}

	result, err := in.InvokeDistributed(req.Method, args...)
	h.gate.RUnlock()

	switch {
	case err == nil:
		h.count(func(s *CallStats) { s.Calls++ })
		if encErr := soap.WriteResponse(w, h.serviceNS, req.Method, result); encErr != nil {
			soap.WriteFault(w, &soap.Fault{Code: "soap:Server", String: "encoding error", Detail: encErr.Error()})
		}
	case errors.Is(err, dyn.ErrNoSuchMethod), errors.Is(err, dyn.ErrSignatureMismatch):
		// Interface changed between lookup and dispatch.
		h.staleCall(w, req.Method)
	default:
		// "a SOAP Response containing a SOAP Fault that encapsulates the
		// exception is sent to the client."
		h.count(func(s *CallStats) { s.AppFaults++ })
		soap.WriteFault(w, &soap.Fault{Code: "soap:Server", String: err.Error()})
	}
}

// staleCall implements the Section 5.7 server algorithm: stall incoming
// processing (write lock), force the published interface current, then send
// the "Non existent Method" fault and resume. Under the ActivePublishingOnly
// ablation the forced publication is skipped (Figure 7 behaviour).
func (h *SOAPCallHandler) staleCall(w http.ResponseWriter, method string) {
	h.count(func(s *CallStats) { s.StaleCalls++ })
	h.gate.Lock()
	if h.pub != nil && !h.activeOnly {
		h.pub.EnsureCurrent()
	}
	h.gate.Unlock()
	soap.WriteFault(w, &soap.Fault{
		Code:   "soap:Server",
		String: soap.FaultNonExistentMethod,
		Detail: "method " + method + " is not part of the current server interface",
	})
}
