// Package orb implements the CORBA Object Request Broker endpoints the
// paper's CORBA subsystem builds on (Figure 5). The ServerORB uses the
// Dynamic Skeleton Interface idea: it serves operations without static
// knowledge of the object's interface, resolving each incoming operation
// name against the *live* dynamic interface at dispatch time — which is
// what lets the SDE change server methods and types without reinitializing
// the ORB (Section 5.2.2). The ClientORB is a Dynamic Invocation Interface:
// it invokes operations by name with signatures obtained from parsed IDL,
// so the CDE can rebuild stubs live.
package orb

import (
	"context"
	"errors"
	"fmt"
	"net"

	"livedev/internal/cdr"
	"livedev/internal/dyn"
	"livedev/internal/giop"
	"livedev/internal/ifsvr"
	"livedev/internal/iiop"
	"livedev/internal/ior"
)

// AppErrorRepoID is the repository id of the generic user exception the SDE
// wraps server-side application errors in ("any exceptions thrown during
// the invocation of the method call is wrapped in a generic exception
// type", Section 5.2.3).
const AppErrorRepoID = "IDL:SDE/ApplicationError:1.0"

// AppError is a server-side application exception delivered to the client.
type AppError struct {
	Message string
}

// Error implements error.
func (e *AppError) Error() string { return "server application error: " + e.Message }

// ServerRequest is one incoming invocation as the Dynamic Skeleton
// Interface presents it: the operation name, and the CDR stream holding
// its arguments for the target to decode once it knows the operation's
// current signature.
type ServerRequest struct {
	Operation string
	Args      *cdr.Decoder
}

// BadOperation is the paper's "Non Existent Method" exception on the CORBA
// path; minor says how the request missed the interface.
func BadOperation(minor uint32) *giop.SystemException {
	return &giop.SystemException{RepoID: giop.RepoBadOperation, Minor: minor, Completed: giop.CompletedNo}
}

// StaleError is the "Non Existent Method" reply, on either side of the ORB.
// A DSITarget returns one to refuse a call: the reply is Exception, a
// BAD_OPERATION, carrying Interface — the document the forced publication
// committed — in a giop.DocContextID service context when it is set. A
// client receives one for that reply, with Interface taken from a
// well-formed context. It matches ErrNonExistentMethod and unwraps to
// Exception.
type StaleError struct {
	Operation string
	Exception *giop.SystemException
	Interface *ifsvr.Document
}

// Error implements error.
func (e *StaleError) Error() string {
	return fmt.Sprintf("%v: %s: %v", ErrNonExistentMethod, e.Operation, e.Exception)
}

// Is makes errors.Is(err, ErrNonExistentMethod) hold.
func (e *StaleError) Is(target error) bool { return target == ErrNonExistentMethod }

// Unwrap returns the BAD_OPERATION exception.
func (e *StaleError) Unwrap() error { return e.Exception }

// docContexts is the service context list of a stale reply carrying doc.
func docContexts(doc *ifsvr.Document, order cdr.ByteOrder) []giop.ServiceContext {
	if doc == nil {
		return nil
	}
	return []giop.ServiceContext{giop.DocContext{
		Version: doc.Version, DescriptorVersion: doc.DescriptorVersion,
		Epoch: doc.Epoch, Generation: doc.Generation, Text: doc.Content,
	}.Context(order)}
}

// carriedDoc returns the interface document in a stale reply's service
// contexts: nil when there is none, or when it is malformed.
func carriedDoc(contexts []giop.ServiceContext) *ifsvr.Document {
	for _, sc := range contexts {
		if sc.ID != giop.DocContextID {
			continue
		}
		dc, err := giop.ParseDocContext(sc)
		if err != nil {
			return nil
		}
		return &ifsvr.Document{Content: dc.Text, Version: dc.Version,
			DescriptorVersion: dc.DescriptorVersion, Epoch: dc.Epoch, Generation: dc.Generation}
	}
	return nil
}

// DSITarget is what a ServerORB dispatches to: the SDE's CORBA Call
// Handler. Implementations must be safe for concurrent use.
type DSITarget interface {
	// Invoke serves one request: resolve req.Operation against the current
	// live interface, decode req.Args under the signature found there, run
	// the operation. ctx is cancelled when the client
	// abandons the call (GIOP CancelRequest), the connection drops, or the
	// ORB shuts down. The error picks the reply: a *StaleError is sent as
	// its BAD_OPERATION and document context — only once the published IDL
	// is guaranteed current (Section 5.7) — a *giop.SystemException as
	// such, and any other error is an application error, sent wrapped in
	// the generic user exception.
	Invoke(ctx context.Context, req ServerRequest) (dyn.Value, error)
}

// ServerORB is an IIOP server endpoint dispatching via DSI.
type ServerORB struct {
	typeID    string
	objectKey []byte
	target    DSITarget
	srv       *iiop.Server
	addr      net.Addr
}

// NewServerORB creates a server ORB for one object (the SDE keeps a single
// instance per server class). typeID is the repository id placed in the
// IOR; objectKey identifies the object on this endpoint.
func NewServerORB(typeID string, objectKey []byte, target DSITarget) *ServerORB {
	o := &ServerORB{
		typeID:    typeID,
		objectKey: append([]byte(nil), objectKey...),
		target:    target,
	}
	o.srv = iiop.NewServer(iiop.HandlerFunc(o.handle))
	return o
}

// Listen binds the ORB to addr ("host:port", port 0 for ephemeral) and
// returns the IOR clients use to reach the object.
func (o *ServerORB) Listen(addr string) (ior.IOR, error) {
	a, err := o.srv.Listen(addr)
	if err != nil {
		return ior.IOR{}, err
	}
	o.addr = a
	tcp, ok := a.(*net.TCPAddr)
	if !ok {
		_ = o.srv.Close()
		return ior.IOR{}, fmt.Errorf("orb: unexpected address type %T", a)
	}
	host := tcp.IP.String()
	return ior.New(o.typeID, host, uint16(tcp.Port), o.objectKey), nil
}

// Addr returns the bound address (nil before Listen).
func (o *ServerORB) Addr() net.Addr { return o.addr }

// Close shuts the ORB down and joins its goroutines.
func (o *ServerORB) Close() error { return o.srv.Close() }

func (o *ServerORB) handle(ctx context.Context, h giop.RequestHeader, args *cdr.Decoder, order cdr.ByteOrder) giop.Message {
	sysEx := func(se *giop.SystemException, contexts []giop.ServiceContext) giop.Message {
		msg, err := giop.EncodeReply(order, giop.ReplyHeader{Contexts: contexts, RequestID: h.RequestID, Status: giop.ReplySystemException}, se.Encode)
		if err != nil {
			return giop.Message{Type: giop.MsgMessageError, Order: order}
		}
		return msg
	}

	if string(h.ObjectKey) != string(o.objectKey) {
		return sysEx(&giop.SystemException{RepoID: giop.RepoObjectNotExist, Minor: 1, Completed: giop.CompletedNo}, nil)
	}

	result, err := o.target.Invoke(ctx, ServerRequest{Operation: h.Operation, Args: args})
	if err == nil {
		msg, encErr := giop.EncodeReply(order, giop.ReplyHeader{RequestID: h.RequestID, Status: giop.ReplyNoException},
			func(e *cdr.Encoder) error { return cdr.EncodeValue(e, result) })
		if encErr != nil {
			return sysEx(&giop.SystemException{RepoID: giop.RepoMarshal, Minor: 2, Completed: giop.CompletedYes}, nil)
		}
		return msg
	}
	var stale *StaleError
	if errors.As(err, &stale) {
		return sysEx(stale.Exception, docContexts(stale.Interface, order))
	}
	if se, ok := giop.AsSystemException(err); ok {
		return sysEx(se, nil)
	}
	// Application error → generic user exception with the message.
	msg, encErr := giop.EncodeReply(order, giop.ReplyHeader{RequestID: h.RequestID, Status: giop.ReplyUserException},
		func(e *cdr.Encoder) error {
			e.WriteString(AppErrorRepoID)
			e.WriteString(err.Error())
			return nil
		})
	if encErr != nil {
		return sysEx(&giop.SystemException{RepoID: giop.RepoUnknown, Minor: 1, Completed: giop.CompletedMaybe}, nil)
	}
	return msg
}
