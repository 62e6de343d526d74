package core

import (
	"net/http"

	"livedev/internal/dyn"
	"livedev/internal/soap"
	"livedev/internal/wsdl"
)

// SOAPServer is the SOAP subsystem for one managed class (Figure 4): the
// WSDL generator feeding the ClassServer's DL Publisher, and the codec of
// the paper's SOAP Call Handler — "the communication end point that
// performs the SOAP to Java and Java to SOAP translation for remote method
// invocations" (Section 5.1), here SOAP to dyn values and back — which
// ClassServer.MountCalls serves on the manager's HTTP endpoint server.
type SOAPServer struct {
	*ClassServer
	serviceNS string
}

var _ Server = (*SOAPServer)(nil)

func newSOAPServer(m *Manager, class *dyn.Class) (*SOAPServer, error) {
	path := "/soap/" + class.Name()
	s := &SOAPServer{serviceNS: "urn:" + class.Name()}
	s.ClassServer = m.NewClassServer(class, TechSOAP, "/wsdl/"+class.Name()+".wsdl", "text/xml",
		func(desc dyn.InterfaceDescriptor) (string, error) {
			return wsdl.Generate(desc, s.Endpoint()).XML()
		})
	s.MountCalls(path, HTTPCodec{Name: "SOAP", Decode: decodeSOAP, Encode: s.encode})
	return s, nil
}

// decodeSOAP reads a request as Section 5.1.3 prescribes: "the SOAP Call
// Handler searches for a matching method in the current server interface"
// while it parses the request, in the one pass that decodes its
// parameters. The method name and the decoded values are copies.
func decodeSOAP(_ *http.Request, body []byte, live dyn.InterfaceDescriptor) (string, []dyn.Value, error) {
	call, err := soap.ParseCall(body, live.Lookup)
	if err != nil {
		return "", nil, err
	}
	if call.Stale != nil {
		// Unknown, or encoded against a stale signature (Section 5.6:
		// "Client calls for stale method signatures may also trigger
		// updates").
		return call.Method, nil, ErrMisfit
	}
	return call.Method, call.Args, nil
}

// encode renders a call's outcome as its SOAP reply: the response
// envelope, or a fault with the paper's fault string.
func (s *SOAPServer) encode(h http.Header, dst []byte, rep Reply) ([]byte, int) {
	var f soap.Fault
	switch rep.Outcome {
	case OutcomeOK:
		body, err := soap.AppendResponse(h, dst, s.serviceNS, rep.Method, rep.Value)
		if err == nil {
			return body, http.StatusOK
		}
		f = soap.Fault{Code: "soap:Server", String: "encoding error", Detail: err.Error()}
	case OutcomeAppFault:
		// "a SOAP Response containing a SOAP Fault that encapsulates the
		// exception is sent to the client."
		f = soap.Fault{Code: "soap:Server", String: rep.Err.Error()}
	case OutcomeStale:
		f = soap.Fault{
			Code:      "soap:Server",
			String:    soap.FaultNonExistentMethod,
			Detail:    "method " + rep.Method + " is not part of the current server interface",
			Interface: rep.Doc,
		}
	case OutcomeMalformed:
		f = soap.Fault{Code: "soap:Client", String: soap.FaultMalformedRequest}
	default: // OutcomeInactive
		f = soap.Fault{Code: "soap:Server", String: soap.FaultServerNotInitialized}
	}
	return soap.AppendFault(h, dst, &f), http.StatusInternalServerError
}
