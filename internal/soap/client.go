package soap

import (
	"context"
	"fmt"
	"net/http"

	"livedev/internal/dyn"
	"livedev/internal/h1"
	"livedev/internal/ifsvr"
)

// Client posts SOAP requests to one endpoint URL — the transport half of a
// SOAP client stub (paper Figure 1, steps 2 and 3).
type Client struct {
	// Endpoint is the SOAP endpoint URL.
	Endpoint string
	// ServiceNS is the XML namespace RPC calls are made in.
	ServiceNS string
	// HTTPClient, when set, carries the calls, with its own timeouts,
	// proxy and TLS settings; nil means h1.Post's direct client.
	HTTPClient *http.Client
}

const contentType = `text/xml; charset="utf-8"`

// AppendResponse appends the response envelope for result to dst, the
// body of a call's HTTP 200 reply, and sets the reply's Content-Type on h.
// On an encoding error what it appended is not an envelope.
func AppendResponse(h http.Header, dst []byte, serviceNS, method string, result dyn.Value) ([]byte, error) {
	h.Set("Content-Type", contentType)
	return appendResponse(dst, serviceNS, method, result)
}

// AppendFault appends f's envelope to dst, the body of a reply sent with
// HTTP 500 per SOAP 1.1 over HTTP, and sets the reply's Content-Type on h
// with the counters of the interface document f carries, if any.
func AppendFault(h http.Header, dst []byte, f *Fault) []byte {
	if f.Interface != nil {
		ifsvr.DocHeaders(*f.Interface, h.Set)
	}
	h.Set("Content-Type", contentType)
	return appendFault(dst, f)
}

// CallContext performs one RPC: it builds the request envelope, POSTs it,
// parses the response, and decodes the result against resultType. SOAP
// faults are returned as *Fault errors. Cancelling ctx aborts the in-flight
// HTTP round-trip and returns an error wrapping ctx.Err().
func (c *Client) CallContext(ctx context.Context, method string, params []NamedValue, resultType *dyn.Type) (dyn.Value, error) {
	var v dyn.Value
	err := h1.Exchange(ctx, c.HTTPClient, c.Endpoint, func(body []byte, header [][2]string) ([]byte, [][2]string, error) {
		body, err := appendRequest(body, c.ServiceNS, method, params)
		return body, append(header,
			[2]string{"Content-Type", contentType},
			[2]string{"SOAPAction", reqSkeletons.get(c.ServiceNS, method, "").action}), err
	}, func(r h1.Reply) (err error) {
		v, err = c.decode(r, method, resultType)
		return err
	})
	return v, err
}

// decode reads the reply to a call of method. The parsed reply aliases r's
// buffer, which is recycled; the result and fault strings are copies.
func (c *Client) decode(r h1.Reply, method string, resultType *dyn.Type) (dyn.Value, error) {
	if resultType == nil {
		resultType = dyn.Void
	}
	// SOAP 1.1 faults come back with HTTP 500; parse the envelope either way.
	parsed, err := parseReply(r.Body, resultType)
	if err != nil {
		if r.Status != http.StatusOK {
			return dyn.Value{}, fmt.Errorf("soap: HTTP %d from %s", r.Status, c.Endpoint)
		}
		return dyn.Value{}, err
	}
	if f := parsed.Fault; f != nil {
		if text, ok := parsed.detail.childText("interface"); ok {
			if doc, ok := ifsvr.CarriedDoc(text, r.Header); ok {
				f.Interface = &doc
			}
		}
		return dyn.Value{}, f
	}
	if resultType.Kind() == dyn.KindVoid {
		return dyn.VoidValue(), nil
	}
	if parsed.Return == nil {
		return dyn.Value{}, fmt.Errorf("soap: response for %s carries no return element", method)
	}
	return parsed.value, parsed.misfit
}
