package jsonb

import (
	"net/http"
	"strconv"

	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/ifsvr"
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

// Server is the JSON subsystem for one managed class: a document generator
// feeding the embedded core.ClassServer's publisher, and a call handler
// mounted on the manager's shared HTTP endpoint server.
type Server struct {
	*core.ClassServer
	endpoint string
}

var _ core.Server = (*Server)(nil)

func newServer(m *core.Manager, class *dyn.Class) (*Server, error) {
	path := "/json/" + class.Name()
	s := &Server{endpoint: m.HTTPBaseURL() + path}
	s.ClassServer = m.NewClassServer(class, Name, "/jsonif/"+class.Name()+".json", ContentType,
		func(desc dyn.InterfaceDescriptor) (string, error) {
			return GenerateDoc(desc, s.endpoint)
		})
	s.MountHTTP(path, s)
	return s, nil
}

// Endpoint returns the JSON-POST endpoint URL.
func (s *Server) Endpoint() string { return s.endpoint }

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

// ServeHTTP handles one call.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "JSON endpoint: POST only", http.StatusMethodNotAllowed)
		return
	}
	// One pooled buffer serves the whole call: the request body is scanned
	// in it, and since decoded values are copies, the reply is built in it.
	c := getCodec()
	defer putCodec(c)
	var readErr error
	c.buf, readErr = readBody(c.buf[:0], r.Body, r.ContentLength)

	rep := s.Call(r.Context(), func(live dyn.InterfaceDescriptor) (string, []dyn.Value, error) {
		if readErr != nil {
			return "", nil, readErr
		}
		// One pass: the method is resolved and each argument decoded
		// against its parameter type as the envelope is scanned.
		c.reset(c.buf)
		req, err := c.parseCall(live.Lookup)
		switch {
		case err != nil:
			return req.method, nil, err
		case req.stale != nil:
			// Unknown method, or encoded against a stale signature: the same
			// protocol either way (Section 5.6).
			return req.method, nil, core.ErrMisfit
		}
		return req.method, req.args, nil
	})

	switch rep.Outcome {
	case core.OutcomeOK:
		var err error
		if c.buf, err = appendResult(c.buf[:0], rep.Value); err != nil {
			writeError(w, c, http.StatusInternalServerError, CodeApplication, err.Error())
			return
		}
		writeBody(w, http.StatusOK, c.buf)
	case core.OutcomeAppFault:
		writeError(w, c, http.StatusInternalServerError, CodeApplication, rep.Err.Error())
	case core.OutcomeStale:
		msg := "method " + rep.Method + " is not part of the current server interface"
		if rep.Doc == nil {
			writeError(w, c, http.StatusNotFound, CodeNonExistentMethod, msg)
			return
		}
		ifsvr.DocHeaders(*rep.Doc, w.Header().Set)
		c.buf = appendStaleError(c.buf[:0], msg, rep.Doc.Content)
		writeBody(w, http.StatusNotFound, c.buf)
	case core.OutcomeMalformed:
		writeError(w, c, http.StatusBadRequest, CodeMalformed, rep.Err.Error())
	case core.OutcomeInactive:
		writeError(w, c, http.StatusServiceUnavailable, CodeNotInitialized, "server not initialized")
	case core.OutcomeAbandoned:
		// The caller is gone; there is nobody to answer.
	}
}
