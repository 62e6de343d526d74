// Package static implements fixed-interface SOAP and CORBA servers: the
// baselines of the paper's Table 1 (a static Axis service in Tomcat, and a
// static OpenORB server). They share the wire stacks (soap, giop, iiop,
// cdr) with the SDE servers but dispatch through precompiled operation
// tables — no dynamic class, no publication machinery, no stale-call
// gates — so the difference between them and the SDE servers is exactly
// the overhead the paper's Section 7 measures.
package static

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"

	"livedev/internal/cdr"
	"livedev/internal/dyn"
	"livedev/internal/giop"
	"livedev/internal/h1"
	"livedev/internal/iiop"
	"livedev/internal/ior"
	"livedev/internal/orb"
	"livedev/internal/soap"
)

// Op is one precompiled server operation: a fixed signature and a handler
// function. It corresponds to a statically generated server stub.
type Op struct {
	Name   string
	Params []dyn.Param
	Result *dyn.Type // nil means void
	Fn     func(args []dyn.Value) (dyn.Value, error)
}

func (o Op) normalized() Op {
	if o.Result == nil {
		o.Result = dyn.Void
	}
	return o
}

// Sig returns the operation's method signature.
func (o Op) Sig() dyn.MethodSig {
	n := o.normalized()
	return dyn.MethodSig{Name: n.Name, Params: n.Params, Result: n.Result}
}

// SOAPServer is a static Web Service on a fixed operation table.
type SOAPServer struct {
	serviceNS string
	ops       map[string]Op

	srv      *h1.Server
	endpoint string
}

// NewSOAPServer builds a static SOAP server for the given operations.
func NewSOAPServer(serviceNS string, ops []Op) (*SOAPServer, error) {
	table := make(map[string]Op, len(ops))
	for _, op := range ops {
		if op.Name == "" || op.Fn == nil {
			return nil, fmt.Errorf("static: operation needs a name and a function")
		}
		if _, dup := table[op.Name]; dup {
			return nil, fmt.Errorf("static: duplicate operation %s", op.Name)
		}
		table[op.Name] = op.normalized()
	}
	return &SOAPServer{serviceNS: serviceNS, ops: table}, nil
}

// Start listens on addr and returns the endpoint URL.
func (s *SOAPServer) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("static: listen %s: %w", addr, err)
	}
	s.endpoint = "http://" + ln.Addr().String() + "/"
	// The same HTTP/1.1 server as the SDE's call endpoint, so Table 1
	// compares dispatch, not servers.
	s.srv = h1.Serve(ln, s)
	return s.endpoint, nil
}

// Endpoint returns the endpoint URL ("" before Start).
func (s *SOAPServer) Endpoint() string { return s.endpoint }

// bufPool holds the buffers a static SOAP call is read into and replied
// from.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

// ServeHTTP implements the static request path: read, parse against the
// table, dispatch, encode and write once, with the SDE server's body
// reader and reply appenders.
func (s *SOAPServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "SOAP endpoint: POST only", http.StatusMethodNotAllowed)
		return
	}
	bp := bufPool.Get().(*[]byte)
	body, err := h1.ReadBody(*bp, r.Body, r.ContentLength)
	reply, status := s.reply(w.Header(), body, err)
	w.Header().Set("Content-Length", strconv.Itoa(len(reply)))
	w.WriteHeader(status)
	_, _ = w.Write(reply)
	if cap(reply) <= 1<<20 { // a one-off bulk call must not stay resident
		*bp = reply[:0]
		bufPool.Put(bp)
	}
}

// reply serves one call read into body and renders its reply over body:
// the decoded arguments and the method name are copies.
func (s *SOAPServer) reply(h http.Header, body []byte, readErr error) ([]byte, int) {
	fault := func(f soap.Fault) ([]byte, int) {
		return soap.AppendFault(h, body[:0], &f), http.StatusInternalServerError
	}
	if readErr != nil {
		return fault(soap.Fault{Code: "soap:Client", String: soap.FaultMalformedRequest})
	}
	call, err := soap.ParseCall(body, s.lookup)
	if err != nil {
		return fault(soap.Fault{Code: "soap:Client", String: soap.FaultMalformedRequest})
	}
	if call.Stale != nil {
		if soap.IsNonExistentMethod(call.Stale) {
			return fault(soap.Fault{Code: "soap:Server", String: soap.FaultNonExistentMethod})
		}
		return fault(soap.Fault{Code: "soap:Client", String: soap.FaultMalformedRequest, Detail: call.Stale.Error()})
	}
	result, err := s.ops[call.Method].Fn(call.Args)
	if err != nil {
		return fault(soap.Fault{Code: "soap:Server", String: err.Error()})
	}
	out, err := soap.AppendResponse(h, body[:0], s.serviceNS, call.Method, result)
	if err != nil {
		return fault(soap.Fault{Code: "soap:Server", String: "encoding error", Detail: err.Error()})
	}
	return out, http.StatusOK
}

// lookup resolves a method in the operation table, for soap.ParseCall.
func (s *SOAPServer) lookup(method string) (dyn.MethodSig, bool) {
	op, ok := s.ops[method]
	return op.Sig(), ok
}

// Close shuts the server down. Idempotent.
func (s *SOAPServer) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// CORBAServer is a static CORBA servant on a fixed operation table — the
// equivalent of a precompiled skeleton in a static OpenORB server.
type CORBAServer struct {
	typeID    string
	objectKey []byte
	ops       map[string]Op
	srv       *iiop.Server
}

// NewCORBAServer builds a static CORBA server.
func NewCORBAServer(typeID string, objectKey []byte, ops []Op) (*CORBAServer, error) {
	table := make(map[string]Op, len(ops))
	for _, op := range ops {
		if op.Name == "" || op.Fn == nil {
			return nil, fmt.Errorf("static: operation needs a name and a function")
		}
		if _, dup := table[op.Name]; dup {
			return nil, fmt.Errorf("static: duplicate operation %s", op.Name)
		}
		table[op.Name] = op.normalized()
	}
	s := &CORBAServer{typeID: typeID, objectKey: append([]byte(nil), objectKey...), ops: table}
	s.srv = iiop.NewServer(iiop.HandlerFunc(s.handle))
	return s, nil
}

// Start listens on addr and returns the object's IOR.
func (s *CORBAServer) Start(addr string) (ior.IOR, error) {
	return orb.Listen(s.srv, addr, s.typeID, s.objectKey)
}

func (s *CORBAServer) handle(_ context.Context, h giop.RequestHeader, args *cdr.Decoder, order cdr.ByteOrder) giop.Message {
	sysEx := func(repoID string) giop.Message {
		return orb.ExceptionReply(order, h.RequestID, &giop.SystemException{RepoID: repoID, Minor: 1, Completed: giop.CompletedNo}, nil)
	}
	if string(h.ObjectKey) != string(s.objectKey) {
		return sysEx(giop.RepoObjectNotExist)
	}
	op, ok := s.ops[h.Operation]
	if !ok {
		return sysEx(giop.RepoBadOperation)
	}
	vals := make([]dyn.Value, len(op.Params))
	for i, p := range op.Params {
		v, err := cdr.DecodeValue(args, p.Type)
		if err != nil {
			return sysEx(giop.RepoMarshal)
		}
		vals[i] = v
	}
	result, err := op.Fn(vals)
	if err != nil {
		return orb.AppErrorReply(order, h.RequestID, err.Error())
	}
	return orb.ResultReply(order, h.RequestID, result)
}

// Close shuts the server down.
func (s *CORBAServer) Close() error { return s.srv.Close() }
