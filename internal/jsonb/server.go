package jsonb

import (
	"net/http"

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
// feeding the embedded core.ClassServer's publisher, and a codec the
// ClassServer serves calls in on the manager's shared HTTP endpoint
// server.
type Server struct {
	*core.ClassServer
}

var _ core.Server = (*Server)(nil)

func newServer(m *core.Manager, class *dyn.Class) (*Server, error) {
	s := &Server{}
	s.ClassServer = m.NewClassServer(class, Name, "/jsonif/"+class.Name()+".json", ContentType,
		func(desc dyn.InterfaceDescriptor) (string, error) {
			return GenerateDoc(desc, s.Endpoint())
		})
	s.MountCalls("/json/"+class.Name(), core.HTTPCodec{Name: Name, Decode: decodeCall, Encode: encodeReply})
	return s, nil
}

// decodeCall reads a request in one pass: the method is resolved and each
// argument decoded against its parameter type as the envelope is scanned.
// The decoded values are copies, so the codec goes back to its pool at
// once.
func decodeCall(_ *http.Request, body []byte, live dyn.InterfaceDescriptor) (string, []dyn.Value, error) {
	c := getCodec()
	defer putCodec(c)
	c.reset(body)
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
}

// encodeReply renders a call's outcome as its JSON reply: the result, or
// an error object with the binding's code.
func encodeReply(h http.Header, dst []byte, rep core.Reply) ([]byte, int) {
	h.Set("Content-Type", ContentType)
	switch rep.Outcome {
	case core.OutcomeOK:
		body, err := appendResult(dst, rep.Value)
		if err != nil {
			return appendError(dst, CodeApplication, err.Error()), http.StatusInternalServerError
		}
		return body, http.StatusOK
	case core.OutcomeAppFault:
		return appendError(dst, CodeApplication, rep.Err.Error()), http.StatusInternalServerError
	case core.OutcomeStale:
		msg := "method " + rep.Method + " is not part of the current server interface"
		if rep.Doc == nil {
			return appendError(dst, CodeNonExistentMethod, msg), http.StatusNotFound
		}
		ifsvr.DocHeaders(*rep.Doc, h.Set)
		return appendStaleError(dst, msg, rep.Doc.Content), http.StatusNotFound
	case core.OutcomeMalformed:
		return appendError(dst, CodeMalformed, rep.Err.Error()), http.StatusBadRequest
	default: // OutcomeInactive
		return appendError(dst, CodeNotInitialized, "server not initialized"), http.StatusServiceUnavailable
	}
}
