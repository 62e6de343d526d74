package jsonb

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"livedev/internal/core"
	"livedev/internal/dyn"
)

// Name is the binding's registered technology name.
const Name = "JSON"

// Wire-protocol error codes.
const (
	// CodeNonExistentMethod is the binding's "Non Existent Method": the
	// Section 5.7 protocol guarantees the published interface document is
	// current by the time a client reads it.
	CodeNonExistentMethod = "non-existent-method"
	// CodeNotInitialized reports a call before the instance exists.
	CodeNotInitialized = "not-initialized"
	// CodeMalformed reports an unparseable request.
	CodeMalformed = "malformed-request"
	// CodeApplication wraps an error returned by the method body.
	CodeApplication = "application-error"
)

// Server is the JSON subsystem bundle for one managed class — the same
// Figure 4/5 shape as the SOAP and CORBA bundles: a document generator
// feeding the shared Interface Server via a DL Publisher, and a call
// handler mounted on the manager's shared HTTP endpoint server. It is built
// entirely from the Manager's public binding surface.
type Server struct {
	mgr      *core.Manager
	class    *dyn.Class
	pub      *core.DLPublisher
	handler  *callHandler
	endpoint string
	path     string
	docPath  string

	mu       sync.Mutex
	instance *dyn.Instance
	closed   bool
}

var _ core.Server = (*Server)(nil)

func newServer(m *core.Manager, class *dyn.Class) (*Server, error) {
	s := &Server{
		mgr:     m,
		class:   class,
		path:    "/json/" + class.Name(),
		docPath: "/jsonif/" + class.Name() + ".json",
	}
	s.endpoint = m.HTTPBaseURL() + s.path
	s.handler = &callHandler{class: class}

	// Publish the basic interface document immediately, like the built-in
	// bindings (Section 4): PublishInterface bundles doc caching, the
	// coalescing store, and the forced-publication flush.
	s.pub = m.PublishInterface(class, s.docPath, ContentType,
		func(desc dyn.InterfaceDescriptor) (string, error) {
			return GenerateDoc(desc, s.endpoint)
		})
	s.handler.pub = s.pub
	s.handler.reactive = m.ReactivePublication()

	m.MountHTTP(s.path, s.handler)
	return s, nil
}

// Class implements core.Server.
func (s *Server) Class() *dyn.Class { return s.class }

// Technology implements core.Server.
func (s *Server) Technology() core.Technology { return core.Technology(Name) }

// Publisher implements core.Server.
func (s *Server) Publisher() *core.DLPublisher { return s.pub }

// Endpoint returns the JSON-POST endpoint URL.
func (s *Server) Endpoint() string { return s.endpoint }

// InterfaceURL implements core.Server: the JSON interface document URL.
func (s *Server) InterfaceURL() string {
	return s.mgr.InterfaceBaseURL() + s.docPath
}

// CreateInstance implements core.Server.
func (s *Server) CreateInstance() (*dyn.Instance, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("jsonb: server closed")
	}
	if s.instance != nil {
		return nil, fmt.Errorf("jsonb: class %s already has its instance (single-instance rule, Section 5.4)", s.class.Name())
	}
	in := s.class.NewInstance()
	s.instance = in
	s.handler.Activate(in)
	return in, nil
}

// Instance implements core.Server.
func (s *Server) Instance() *dyn.Instance {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.instance
}

// Close implements core.Server.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.mgr.UnmountHTTP(s.path)
	s.pub.Close()
	s.mgr.Store().Remove(s.docPath)
	s.mgr.Unregister(s.class.Name())
	return nil
}

// callHandler is the binding's Call Handler, with the same concurrency
// design as the built-in pair: concurrent requests under a read gate, the
// stale path under the write gate with forced publication (Section 5.7).
type callHandler struct {
	class    *dyn.Class
	pub      *core.DLPublisher
	reactive bool

	gate     sync.RWMutex
	instance *dyn.Instance
}

var _ core.CallHandler = (*callHandler)(nil)
var _ http.Handler = (*callHandler)(nil)

// Activate implements core.CallHandler.
func (h *callHandler) Activate(in *dyn.Instance) {
	h.gate.Lock()
	h.instance = in
	h.gate.Unlock()
}

// Active implements core.CallHandler.
func (h *callHandler) Active() bool {
	h.gate.RLock()
	defer h.gate.RUnlock()
	return h.instance != nil
}

// writeBody sends one complete envelope: declared length, one Write.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", ContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // the client is gone; nobody to tell
}

func writeError(w http.ResponseWriter, c *codec, status int, code, msg string) {
	c.buf = appendError(c.buf[:0], code, msg)
	writeBody(w, status, c.buf)
}

// ServeHTTP handles one call. The request context (cancelled when the
// client goes away) gates dispatch.
func (h *callHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "JSON endpoint: POST only", http.StatusMethodNotAllowed)
		return
	}
	// One pooled buffer serves the whole call: the request body is scanned
	// in it, and since decoded values are copies, the reply is built in it.
	c := getCodec()
	defer putCodec(c)
	var err error
	if c.buf, err = readBody(c.buf[:0], r.Body, r.ContentLength); err != nil {
		writeError(w, c, http.StatusBadRequest, CodeMalformed, err.Error())
		return
	}

	h.gate.RLock()
	in := h.instance
	// Resolve and decode against the live interface, not any cached view.
	c.reset(c.buf)
	req, err := c.parseCall(h.class.Interface().Lookup)
	switch {
	case err != nil:
		h.gate.RUnlock()
		writeError(w, c, http.StatusBadRequest, CodeMalformed, err.Error())
		return
	case in == nil:
		h.gate.RUnlock()
		writeError(w, c, http.StatusServiceUnavailable, CodeNotInitialized, "server not initialized")
		return
	case req.stale != nil:
		// Unknown method, or encoded against a stale signature: the same
		// protocol either way (Section 5.6).
		h.gate.RUnlock()
		h.staleCall(w, c, req.method)
		return
	case r.Context().Err() != nil:
		// The caller is gone; skip work nobody will observe.
		h.gate.RUnlock()
		return
	}
	result, err := in.InvokeDistributed(req.method, req.args...)
	h.gate.RUnlock()

	switch {
	case err == nil:
		if c.buf, err = appendResult(c.buf[:0], result); err != nil {
			writeError(w, c, http.StatusInternalServerError, CodeApplication, err.Error())
			return
		}
		writeBody(w, http.StatusOK, c.buf)
	case errors.Is(err, dyn.ErrNoSuchMethod), errors.Is(err, dyn.ErrSignatureMismatch):
		// Interface changed between lookup and dispatch.
		h.staleCall(w, c, req.method)
	default:
		writeError(w, c, http.StatusInternalServerError, CodeApplication, err.Error())
	}
}

// staleCall implements the Section 5.7 server algorithm: stall incoming
// processing (write gate), force the published interface document current,
// then report "non-existent method" and resume.
func (h *callHandler) staleCall(w http.ResponseWriter, c *codec, method string) {
	h.gate.Lock()
	if h.pub != nil && h.reactive {
		h.pub.EnsureCurrent()
	}
	h.gate.Unlock()
	writeError(w, c, http.StatusNotFound, CodeNonExistentMethod,
		"method "+method+" is not part of the current server interface")
}
