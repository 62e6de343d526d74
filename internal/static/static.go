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
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"livedev/internal/cdr"
	"livedev/internal/dyn"
	"livedev/internal/giop"
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

	srv      *http.Server
	ln       net.Listener
	endpoint string
	done     chan struct{}
	once     sync.Once
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
	s.ln = ln
	s.endpoint = "http://" + ln.Addr().String() + "/"
	s.srv = &http.Server{Handler: s, ReadHeaderTimeout: 10 * time.Second}
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln)
	}()
	return s.endpoint, nil
}

// Endpoint returns the endpoint URL ("" before Start).
func (s *SOAPServer) Endpoint() string { return s.endpoint }

// ServeHTTP implements the static request path: parse, table lookup,
// dispatch, encode.
func (s *SOAPServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "SOAP endpoint: POST only", http.StatusMethodNotAllowed)
		return
	}
	buf := soap.GetBodyBuffer()
	defer soap.PutBodyBuffer(buf)
	if err := soap.ReadBody(buf, r.Body, r.ContentLength); err != nil {
		soap.WriteFault(w, &soap.Fault{Code: "soap:Client", String: soap.FaultMalformedRequest})
		return
	}
	req, err := soap.ParseRequest(buf.Bytes())
	if err != nil {
		soap.WriteFault(w, &soap.Fault{Code: "soap:Client", String: soap.FaultMalformedRequest})
		return
	}
	op, ok := s.ops[req.Method]
	if !ok || len(req.Params) != len(op.Params) {
		soap.WriteFault(w, &soap.Fault{Code: "soap:Server", String: soap.FaultNonExistentMethod})
		return
	}
	args := make([]dyn.Value, len(op.Params))
	for i, p := range op.Params {
		v, err := soap.DecodeValue(req.Params[i], p.Type)
		if err != nil {
			soap.WriteFault(w, &soap.Fault{Code: "soap:Client", String: soap.FaultMalformedRequest, Detail: err.Error()})
			return
		}
		args[i] = v
	}
	result, err := op.Fn(args)
	if err != nil {
		soap.WriteFault(w, &soap.Fault{Code: "soap:Server", String: err.Error()})
		return
	}
	if err := soap.WriteResponse(w, s.serviceNS, req.Method, result); err != nil {
		soap.WriteFault(w, &soap.Fault{Code: "soap:Server", String: "encoding error", Detail: err.Error()})
	}
}

// Close shuts the server down.
func (s *SOAPServer) Close() error {
	if s.srv == nil {
		return nil
	}
	var err error
	s.once.Do(func() {
		err = s.srv.Close()
		<-s.done
	})
	return err
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
	a, err := s.srv.Listen(addr)
	if err != nil {
		return ior.IOR{}, err
	}
	tcp, ok := a.(*net.TCPAddr)
	if !ok {
		_ = s.srv.Close()
		return ior.IOR{}, errors.New("static: unexpected listener address type")
	}
	return ior.New(s.typeID, tcp.IP.String(), uint16(tcp.Port), s.objectKey), nil
}

func (s *CORBAServer) handle(_ context.Context, h giop.RequestHeader, args *cdr.Decoder, order cdr.ByteOrder) giop.Message {
	sysEx := func(repoID string) giop.Message {
		se := &giop.SystemException{RepoID: repoID, Minor: 1, Completed: giop.CompletedNo}
		msg, err := giop.EncodeReply(order, giop.ReplyHeader{RequestID: h.RequestID, Status: giop.ReplySystemException}, se.Encode)
		if err != nil {
			return giop.Message{Type: giop.MsgMessageError, Order: order}
		}
		return msg
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
		msg, encErr := giop.EncodeReply(order, giop.ReplyHeader{RequestID: h.RequestID, Status: giop.ReplyUserException},
			func(e *cdr.Encoder) error {
				e.WriteString(orb.AppErrorRepoID)
				e.WriteString(err.Error())
				return nil
			})
		if encErr != nil {
			return sysEx(giop.RepoUnknown)
		}
		return msg
	}
	msg, encErr := giop.EncodeReply(order, giop.ReplyHeader{RequestID: h.RequestID, Status: giop.ReplyNoException},
		func(e *cdr.Encoder) error { return cdr.EncodeValue(e, result) })
	if encErr != nil {
		return sysEx(giop.RepoMarshal)
	}
	return msg
}

// Close shuts the server down.
func (s *CORBAServer) Close() error { return s.srv.Close() }
