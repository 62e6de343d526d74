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
	"fmt"
	"net"

	"livedev/internal/cdr"
	"livedev/internal/dyn"
	"livedev/internal/giop"
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

// DSITarget is what a ServerORB dispatches to: the SDE's CORBA Call
// Handler. Implementations must be safe for concurrent use.
type DSITarget interface {
	// Invoke serves one request: resolve req.Operation against the current
	// live interface, decode req.Args under the signature found there, run
	// the operation. ctx is cancelled when the client
	// abandons the call (GIOP CancelRequest), the connection drops, or the
	// ORB shuts down. The error picks the reply: a *giop.SystemException is
	// sent as such — BadOperation only once the published IDL is
	// guaranteed current (Section 5.7) — and any other error is an
	// application error, sent wrapped in the generic user exception.
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
	sysEx := func(se *giop.SystemException) giop.Message {
		msg, err := giop.EncodeReply(order, giop.ReplyHeader{RequestID: h.RequestID, Status: giop.ReplySystemException}, se.Encode)
		if err != nil {
			return giop.Message{Type: giop.MsgMessageError, Order: order}
		}
		return msg
	}

	if string(h.ObjectKey) != string(o.objectKey) {
		return sysEx(&giop.SystemException{RepoID: giop.RepoObjectNotExist, Minor: 1, Completed: giop.CompletedNo})
	}

	result, err := o.target.Invoke(ctx, ServerRequest{Operation: h.Operation, Args: args})
	if err == nil {
		msg, encErr := giop.EncodeReply(order, giop.ReplyHeader{RequestID: h.RequestID, Status: giop.ReplyNoException},
			func(e *cdr.Encoder) error { return cdr.EncodeValue(e, result) })
		if encErr != nil {
			return sysEx(&giop.SystemException{RepoID: giop.RepoMarshal, Minor: 2, Completed: giop.CompletedYes})
		}
		return msg
	}
	if se, ok := giop.AsSystemException(err); ok {
		return sysEx(se)
	}
	// Application error → generic user exception with the message.
	msg, encErr := giop.EncodeReply(order, giop.ReplyHeader{RequestID: h.RequestID, Status: giop.ReplyUserException},
		func(e *cdr.Encoder) error {
			e.WriteString(AppErrorRepoID)
			e.WriteString(err.Error())
			return nil
		})
	if encErr != nil {
		return sysEx(&giop.SystemException{RepoID: giop.RepoUnknown, Minor: 1, Completed: giop.CompletedMaybe})
	}
	return msg
}
