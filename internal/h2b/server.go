package h2b

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"livedev/internal/cdr"
	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/h2x"
	"livedev/internal/ifsvr"
)

// maxBodyBytes bounds one call's argument (or reply) stream.
const maxBodyBytes = 16 << 20

var errBodyTooLarge = errors.New("h2b: message body exceeds 16 MiB")

// readBody reads r to its end and fails with errBodyTooLarge once the body
// passes maxBodyBytes, rather than handing on a truncated argument stream
// (which would decode as a stale call, not as the framing error it is).
func readBody(r io.Reader) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r, maxBodyBytes+1))
	if err == nil && len(body) > maxBodyBytes {
		err = errBodyTooLarge
	}
	return body, err
}

// Server is the h2b subsystem for one managed class: a document generator
// feeding the embedded core.ClassServer's publisher, and a call handler
// served twice — mounted on the manager's shared HTTP endpoint server,
// where the advertised endpoint is a plain HTTP POST any client can make;
// and on a dedicated h2x fast-path listener, the multiplexed path.
type Server struct {
	*core.ClassServer
	endpoint string
	muxAddr  string
}

var _ core.Server = (*Server)(nil)
var _ http.Handler = (*Server)(nil)
var _ h2x.Handler = (*Server)(nil)

func newServer(m *core.Manager, class *dyn.Class) (*Server, error) {
	path := "/h2b/" + class.Name()
	s := &Server{endpoint: m.HTTPBaseURL() + path}
	s.ClassServer = m.NewClassServer(class, Name, "/h2bif/"+class.Name()+".h2b", DocContentType,
		func(desc dyn.InterfaceDescriptor) (string, error) {
			return GenerateDoc(desc, s.endpoint, s.muxAddr)
		})

	// The fast-path listener: the same calls, carried by the purpose-built
	// h2x engine instead of the general HTTP stack, on a dedicated port
	// next to the manager's listener (the CORBA binding's IIOP port is the
	// precedent). The document advertises it as mux_endpoint.
	mux := h2x.NewServer(s)
	muxAddr, err := mux.Listen(net.JoinHostPort(httpHost(m.HTTPBaseURL()), "0"))
	if err != nil {
		_ = s.Close()
		return nil, fmt.Errorf("h2b: starting mux listener: %w", err)
	}
	s.muxAddr = muxAddr
	s.OnClose(mux.Close)
	s.MountHTTP(path, s)
	return s, nil
}

// httpHost extracts the host from the manager's base URL, defaulting to
// loopback so the mux listener binds the same interface as the HTTP one.
func httpHost(baseURL string) string {
	if u, err := url.Parse(baseURL); err == nil && u.Hostname() != "" {
		return u.Hostname()
	}
	return "127.0.0.1"
}

// Endpoint returns the CDR-POST endpoint URL.
func (s *Server) Endpoint() string { return s.endpoint }

// MuxAddr returns the fast-path listener's "host:port" — the address the
// interface document advertises as mux_endpoint.
func (s *Server) MuxAddr() string { return s.muxAddr }

// writeError sends an error reply: declared length, one Write.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(msg)))
	w.Header().Set(ErrorHeader, code)
	w.WriteHeader(status)
	_, _ = io.WriteString(w, msg)
}

// reply is one call's transport-neutral outcome. A zero status means the
// caller went away (the stream was reset) and no reply should be sent.
// On success (status 200), body is the CDR-encoded result in order, and
// release — if set — recycles the pooled encoder backing body; the
// transport must invoke it after the body octets are copied out.
type reply struct {
	status  int
	errCode string
	msg     string
	order   cdr.ByteOrder
	body    []byte
	release func()
	// doc is the interface document a stale reply carries: msg is its text,
	// and its counters go in the ifsvr document headers.
	doc *ifsvr.Document
}

// errReply builds an error outcome.
func errReply(status int, code, msg string) reply {
	return reply{status: status, errCode: code, msg: msg}
}

// call runs one call whose transport is already decoded: CDR argument
// decode against the live interface and dispatch through the ClassServer's
// gate, CDR result encode. It is the shared core of both transports — the
// HTTP handler on the manager's listener and the h2x fast path — so the
// stale-call protocol and encoder pooling behave identically on either.
// body is the caller's own buffer: the zero-copy decode may alias it,
// argument values keep it alive. readErr is the transport's failure to
// produce body (an oversize one included), if any.
func (s *Server) call(ctx context.Context, method, orderHdr string, body []byte, readErr error) reply {
	rep := s.Call(ctx, func(live dyn.InterfaceDescriptor) (string, []dyn.Value, error) {
		if readErr != nil {
			return method, nil, readErr
		}
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
		d.SetZeroCopy(true)
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
	})

	switch rep.Outcome {
	case core.OutcomeOK:
		e := cdr.GetEncoder(cdr.BigEndian)
		if encErr := cdr.EncodeValue(e, rep.Value); encErr != nil {
			cdr.PutEncoder(e)
			return errReply(http.StatusInternalServerError, CodeApplication, encErr.Error())
		}
		return reply{
			status:  http.StatusOK,
			order:   cdr.BigEndian,
			body:    e.Bytes(),
			release: func() { cdr.PutEncoder(e) },
		}
	case core.OutcomeAppFault:
		return errReply(http.StatusInternalServerError, CodeApplication, rep.Err.Error())
	case core.OutcomeStale:
		if rep.Doc != nil {
			r := errReply(http.StatusNotFound, CodeNonExistentMethod, rep.Doc.Content)
			r.doc = rep.Doc
			return r
		}
		return errReply(http.StatusNotFound, CodeNonExistentMethod,
			"method "+rep.Method+" is not part of the current server interface")
	case core.OutcomeMalformed:
		return errReply(http.StatusBadRequest, CodeMalformed, rep.Err.Error())
	case core.OutcomeInactive:
		return errReply(http.StatusServiceUnavailable, CodeNotInitialized, "server not initialized")
	default:
		// Abandoned: the stream was reset; the zero reply sends nothing.
		return reply{}
	}
}

// ServeHTTP handles one call on the manager's listener. The request
// context — cancelled when the client's connection goes away — gates
// dispatch.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "h2b endpoint: POST only", http.StatusMethodNotAllowed)
		return
	}
	body, readErr := readBody(r.Body)
	rep := s.call(r.Context(), r.Header.Get(MethodHeader), r.Header.Get(OrderHeader), body, readErr)
	switch {
	case rep.status == 0:
		// Caller gone; nobody is left to read a reply.
	case rep.errCode != "":
		if rep.doc != nil {
			ifsvr.DocHeaders(*rep.doc, w.Header().Set)
		}
		writeError(w, rep.status, rep.errCode, rep.msg)
	default:
		w.Header().Set("Content-Type", CallContentType)
		w.Header().Set("Content-Length", strconv.Itoa(len(rep.body)))
		w.Header().Set(OrderHeader, orderValue(rep.order))
		_, _ = w.Write(rep.body)
		// The reply has left, or been copied, by the time Write returns,
		// so the pooled encoder can be recycled immediately.
		if rep.release != nil {
			rep.release()
		}
	}
}

// ServeH2 handles one call on the fast-path listener — the same core as
// ServeHTTP, minus the general HTTP stack. The engine invokes Done after
// the response octets leave, which is when the pooled encoder backing
// the body goes back to its pool.
func (s *Server) ServeH2(ctx context.Context, r *h2x.Request) *h2x.Response {
	if r.Method != "POST" {
		return &h2x.Response{
			Status: http.StatusMethodNotAllowed,
			Header: [][2]string{{"content-type", "text/plain; charset=utf-8"}},
			Body:   []byte("h2b endpoint: POST only"),
		}
	}
	var readErr error
	if len(r.Body) > maxBodyBytes {
		readErr = errBodyTooLarge
	}
	rep := s.call(ctx, r.HeaderValue(muxMethodHeader), r.HeaderValue(muxOrderHeader), r.Body, readErr)
	switch {
	case rep.status == 0:
		return nil // caller gone; a nil response just drops the stream
	case rep.errCode != "":
		hdr := [][2]string{
			{"content-type", "text/plain; charset=utf-8"},
			{muxErrorHeader, rep.errCode},
		}
		if rep.doc != nil {
			ifsvr.DocHeaders(*rep.doc, func(name, value string) {
				hdr = append(hdr, [2]string{strings.ToLower(name), value})
			})
		}
		return &h2x.Response{Status: rep.status, Header: hdr, Body: []byte(rep.msg)}
	default:
		return &h2x.Response{
			Status: rep.status,
			Header: [][2]string{
				{"content-type", CallContentType},
				{muxOrderHeader, orderValue(rep.order)},
			},
			Body: rep.body,
			Done: rep.release,
		}
	}
}
