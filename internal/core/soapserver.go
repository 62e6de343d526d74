package core

import (
	"net/http"

	"livedev/internal/dyn"
	"livedev/internal/soap"
	"livedev/internal/wsdl"
)

// SOAPServer is the SOAP subsystem for one managed class (Figure 4): the
// WSDL generator feeding the ClassServer's DL Publisher, and the paper's
// SOAP Call Handler — "the communication end point that performs the SOAP
// to Java and Java to SOAP translation for remote method invocations"
// (Section 5.1), here SOAP to dyn values and back — mounted on the
// manager's HTTP endpoint server.
type SOAPServer struct {
	*ClassServer
	endpoint  string // full endpoint URL
	serviceNS string
}

var _ Server = (*SOAPServer)(nil)

func newSOAPServer(m *Manager, class *dyn.Class) (*SOAPServer, error) {
	path := "/soap/" + class.Name()
	s := &SOAPServer{endpoint: m.HTTPBaseURL() + path, serviceNS: "urn:" + class.Name()}
	s.ClassServer = m.NewClassServer(class, TechSOAP, "/wsdl/"+class.Name()+".wsdl", "text/xml",
		func(desc dyn.InterfaceDescriptor) (string, error) {
			return wsdl.Generate(desc, s.endpoint).XML()
		})
	s.MountHTTP(path, s)
	return s, nil
}

// Endpoint returns the SOAP endpoint URL.
func (s *SOAPServer) Endpoint() string { return s.endpoint }

// ServeHTTP implements the request/response handling of Section 5.1.3.
// The request body is read into a pooled buffer. The parsed request's
// parameter handles alias that buffer; the decoded dyn values and the
// method name are copies, so the buffer recycles once the request is
// handled. Replies are rendered into and written from a pooled buffer too.
func (s *SOAPServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "SOAP endpoint: POST only", http.StatusMethodNotAllowed)
		return
	}
	buf := soap.GetBodyBuffer()
	defer soap.PutBodyBuffer(buf)
	// An oversize body is malformed like a truncated one: it is not parsed.
	readErr := soap.ReadBody(buf, r.Body, r.ContentLength)

	rep := s.Call(r.Context(), func(live dyn.InterfaceDescriptor) (string, []dyn.Value, error) {
		if readErr != nil {
			return "", nil, readErr
		}
		req, err := soap.ParseRequest(buf.Bytes())
		if err != nil {
			return "", nil, err
		}
		// "the SOAP Call Handler searches for a matching method in the
		// current server interface".
		sig, ok := live.Lookup(req.Method)
		if !ok || len(req.Params) != len(sig.Params) {
			return req.Method, nil, ErrMisfit
		}
		args := make([]dyn.Value, len(sig.Params))
		for i, p := range sig.Params {
			if args[i], err = soap.DecodeValue(req.Params[i], p.Type); err != nil {
				// Encoded against a stale signature (Section 5.6: "Client
				// calls for stale method signatures may also trigger updates").
				return req.Method, nil, ErrMisfit
			}
		}
		return req.Method, args, nil
	})

	switch rep.Outcome {
	case OutcomeOK:
		if encErr := soap.WriteResponse(w, s.serviceNS, rep.Method, rep.Value); encErr != nil {
			soap.WriteFault(w, &soap.Fault{Code: "soap:Server", String: "encoding error", Detail: encErr.Error()})
		}
	case OutcomeAppFault:
		// "a SOAP Response containing a SOAP Fault that encapsulates the
		// exception is sent to the client."
		soap.WriteFault(w, &soap.Fault{Code: "soap:Server", String: rep.Err.Error()})
	case OutcomeStale:
		soap.WriteFault(w, &soap.Fault{
			Code:      "soap:Server",
			String:    soap.FaultNonExistentMethod,
			Detail:    "method " + rep.Method + " is not part of the current server interface",
			Interface: rep.Doc,
		})
	case OutcomeMalformed:
		soap.WriteFault(w, &soap.Fault{Code: "soap:Client", String: soap.FaultMalformedRequest})
	case OutcomeInactive:
		soap.WriteFault(w, &soap.Fault{Code: "soap:Server", String: soap.FaultServerNotInitialized})
	case OutcomeAbandoned:
		// The client is gone; there is nobody to answer.
	}
}
