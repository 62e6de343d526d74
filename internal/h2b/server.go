package h2b

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"

	"livedev/internal/cdr"
	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/h1"
	"livedev/internal/h2x"
	"livedev/internal/ifsvr"
)

// maxBodyBytes bounds one call's argument stream on the h2x fast path, as
// internal/h1 bounds it on the HTTP one.
const maxBodyBytes = 16 << 20

// Server is the h2b subsystem for one managed class: a document generator
// feeding the embedded core.ClassServer's publisher, and one codec served
// on two fronts — the manager's shared HTTP endpoint server
// (core.ClassServer.MountCalls), where the advertised endpoint is a plain
// HTTP POST any client can make; and a dedicated h2x fast-path listener,
// the multiplexed path. Both fronts decode with decode and map outcomes
// with failure, so the stale-call protocol reads the same on either.
type Server struct {
	*core.ClassServer
	muxAddr string
}

var _ core.Server = (*Server)(nil)
var _ h2x.Handler = (*Server)(nil)

func newServer(m *core.Manager, class *dyn.Class) (*Server, error) {
	s := &Server{}
	s.ClassServer = m.NewClassServer(class, Name, "/h2bif/"+class.Name()+".h2b", DocContentType,
		func(desc dyn.InterfaceDescriptor) (string, error) {
			return GenerateDoc(desc, s.Endpoint(), s.muxAddr)
		})

	// The fast-path listener: the same calls, carried by the purpose-built
	// h2x engine instead of the general HTTP stack, on a dedicated port
	// next to the manager's listener (the CORBA binding's IIOP port is the
	// precedent). The document advertises it as mux_endpoint.
	mux := h2x.NewServer(s)
	host, _, _ := net.SplitHostPort(strings.TrimPrefix(m.HTTPBaseURL(), "http://"))
	muxAddr, err := mux.Listen(net.JoinHostPort(host, "0"))
	if err != nil {
		_ = s.Close()
		return nil, fmt.Errorf("h2b: starting mux listener: %w", err)
	}
	s.muxAddr = muxAddr
	s.OnClose(mux.Close)
	s.MountCalls("/h2b/"+class.Name(), core.HTTPCodec{
		Name: "h2b",
		Decode: func(r *http.Request, body []byte, live dyn.InterfaceDescriptor) (string, []dyn.Value, error) {
			// body is a pooled buffer, which an argument a method body keeps
			// would outlive: decode copies.
			return decode(r.Header.Get(methodKey), r.Header.Get(orderKey), body, false, live)
		},
		Encode: encodeHTTP,
	})
	return s, nil
}

// MuxAddr returns the fast-path listener's "host:port" — the address the
// interface document advertises as mux_endpoint.
func (s *Server) MuxAddr() string { return s.muxAddr }

// decode reads one call, its method and byte order as the front carries
// them, against the live interface. With zeroCopy the arguments' strings
// and octets alias body, which must then be a buffer of the call's own
// that nothing recycles.
func decode(method, orderHdr string, body []byte, zeroCopy bool, live dyn.InterfaceDescriptor) (string, []dyn.Value, error) {
	if method == "" {
		return "", nil, errors.New("missing " + MethodHeader + " header")
	}
	order, err := parseOrder(orderHdr)
	if err != nil {
		return method, nil, err
	}
	sig, ok := live.Lookup(method)
	if !ok {
		return method, nil, core.ErrMisfit
	}
	d := cdr.NewDecoder(body, order)
	d.SetZeroCopy(zeroCopy)
	args := make([]dyn.Value, len(sig.Params))
	for i, p := range sig.Params {
		if args[i], err = cdr.DecodeValue(d, p.Type); err != nil {
			// Encoded against a stale signature (Section 5.6).
			return method, nil, core.ErrMisfit
		}
	}
	if d.Remaining() != 0 {
		// Trailing octets mean the client encoded more arguments than the
		// current signature takes — a stale stub, not a framing error.
		return method, nil, core.ErrMisfit
	}
	return method, args, nil
}

// result encodes an OK call's result, big-endian, into a pooled encoder
// the caller puts back once the octets are out. A result that does not
// encode turns rep into the application fault it is reported as, and
// result returns nil.
func result(rep *core.Reply) *cdr.Encoder {
	e := cdr.GetEncoder(cdr.BigEndian)
	if err := cdr.EncodeValue(e, rep.Value); err != nil {
		cdr.PutEncoder(e)
		*rep = core.Reply{Outcome: core.OutcomeAppFault, Method: rep.Method, Err: err}
		return nil
	}
	return e
}

// failure maps the outcome of a call that did not succeed to its error
// reply, the same on both fronts: status, error code, message text and,
// for a stale call, the interface document the message is the text of.
func failure(rep core.Reply) (status int, code, msg string, doc *ifsvr.Document) {
	switch rep.Outcome {
	case core.OutcomeAppFault:
		return http.StatusInternalServerError, CodeApplication, rep.Err.Error(), nil
	case core.OutcomeStale:
		if rep.Doc != nil {
			return http.StatusNotFound, CodeNonExistentMethod, rep.Doc.Content, rep.Doc
		}
		return http.StatusNotFound, CodeNonExistentMethod, "method " + rep.Method + " is not part of the current server interface", nil
	case core.OutcomeMalformed:
		return http.StatusBadRequest, CodeMalformed, rep.Err.Error(), nil
	default: // OutcomeInactive
		return http.StatusServiceUnavailable, CodeNotInitialized, "server not initialized", nil
	}
}

// The wire headers as an http.Header keys them: the HTTP front canonicalizes none per call.
var methodKey, orderKey, errorKey = http.CanonicalHeaderKey(MethodHeader), http.CanonicalHeaderKey(OrderHeader), http.CanonicalHeaderKey(ErrorHeader)

// encodeHTTP renders a call's outcome for the HTTP front.
func encodeHTTP(h http.Header, dst []byte, rep core.Reply) ([]byte, int) {
	if rep.Outcome == core.OutcomeOK {
		if e := result(&rep); e != nil {
			h.Set("Content-Type", CallContentType)
			h.Set(orderKey, orderValue(e.Order()))
			dst = append(dst, e.Bytes()...)
			cdr.PutEncoder(e)
			return dst, http.StatusOK
		}
	}
	status, code, msg, doc := failure(rep)
	if doc != nil {
		ifsvr.DocHeaders(*doc, h.Set)
	}
	h.Set("Content-Type", "text/plain; charset=utf-8")
	h.Set(errorKey, code)
	return append(dst, msg...), status
}

// ServeH2 handles one call on the fast-path listener. The engine invokes
// Done after the response octets leave, which is when the pooled encoder
// backing the body goes back to its pool.
func (s *Server) ServeH2(ctx context.Context, r *h2x.Request) *h2x.Response {
	if r.Method != "POST" {
		return &h2x.Response{
			Status: http.StatusMethodNotAllowed,
			Header: [][2]string{{"allow", "POST"}, {"content-type", "text/plain; charset=utf-8"}},
			Body:   []byte("h2b endpoint: POST only"),
		}
	}
	rep := s.Call(ctx, func(live dyn.InterfaceDescriptor) (string, []dyn.Value, error) {
		if len(r.Body) > maxBodyBytes {
			return "", nil, h1.ErrBodyTooLarge
		}
		// The engine gives each stream a body of its own: decode zero-copy.
		return decode(r.HeaderValue(muxMethodHeader), r.HeaderValue(muxOrderHeader), r.Body, true, live)
	})
	switch rep.Outcome {
	case core.OutcomeAbandoned:
		return nil // the stream was reset; a nil response just drops it
	case core.OutcomeOK:
		if e := result(&rep); e != nil {
			return &h2x.Response{
				Status: http.StatusOK,
				Header: [][2]string{
					{"content-type", CallContentType},
					{muxOrderHeader, orderValue(e.Order())},
				},
				Body: e.Bytes(),
				Done: func() { cdr.PutEncoder(e) },
			}
		}
	}
	status, code, msg, doc := failure(rep)
	hdr := [][2]string{
		{"content-type", "text/plain; charset=utf-8"},
		{muxErrorHeader, code},
	}
	if doc != nil {
		ifsvr.DocHeaders(*doc, func(name, value string) {
			hdr = append(hdr, [2]string{strings.ToLower(name), value})
		})
	}
	return &h2x.Response{Status: status, Header: hdr, Body: []byte(msg)}
}
