// Package orb implements the CORBA Object Request Broker pieces the
// paper's CORBA subsystem builds on (Figure 5). On the server side it is a
// vocabulary, not a dispatcher: Listen binds an IIOP server and names the
// object in an IOR, and the reply builders render a call's outcome as a
// GIOP Reply. The SDE's CORBA Call Handler (core.CORBAServer) is the
// iiop.Handler that resolves each operation against the *live* dynamic
// interface at dispatch time — the Dynamic Skeleton Interface idea, which
// is what lets the SDE change server methods and types without
// reinitializing the ORB (Section 5.2.2). The ClientORB is a Dynamic
// Invocation Interface: it invokes operations by name with signatures
// obtained from parsed IDL, so the CDE can rebuild stubs live.
package orb

import (
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

// BadOperation is the paper's "Non Existent Method" exception on the CORBA
// path; minor says how the request missed the interface.
func BadOperation(minor uint32) *giop.SystemException {
	return &giop.SystemException{RepoID: giop.RepoBadOperation, Minor: minor, Completed: giop.CompletedNo}
}

// StaleError is the client's form of the "Non Existent Method" reply: the
// BAD_OPERATION in Exception, and in Interface the document the server's
// forced publication committed, taken from a well-formed giop.DocContextID
// service context when the reply carries one. It matches
// ErrNonExistentMethod and unwraps to Exception.
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

// Listen binds srv to addr ("host:port", port 0 for ephemeral) and returns
// the IOR clients use to reach the object typeID names under objectKey.
func Listen(srv *iiop.Server, addr, typeID string, objectKey []byte) (ior.IOR, error) {
	a, err := srv.Listen(addr)
	if err != nil {
		return ior.IOR{}, err
	}
	tcp, ok := a.(*net.TCPAddr)
	if !ok {
		_ = srv.Close()
		return ior.IOR{}, fmt.Errorf("orb: unexpected address type %T", a)
	}
	return ior.New(typeID, tcp.IP.String(), uint16(tcp.Port), objectKey), nil
}

// ResultReply is the reply to request id carrying result, or MARSHAL when
// result does not encode in CDR.
func ResultReply(order cdr.ByteOrder, id uint32, result dyn.Value) giop.Message {
	msg, err := giop.EncodeReply(order, giop.ReplyHeader{RequestID: id, Status: giop.ReplyNoException},
		func(e *cdr.Encoder) error { return cdr.EncodeValue(e, result) })
	if err != nil {
		return ExceptionReply(order, id, &giop.SystemException{RepoID: giop.RepoMarshal, Minor: 2, Completed: giop.CompletedYes}, nil)
	}
	return msg
}

// ExceptionReply is the reply to request id raising se. A stale call's
// BAD_OPERATION passes the document the forced publication committed as
// doc, which the reply carries in a giop.DocContextID service context;
// every other reply passes nil.
func ExceptionReply(order cdr.ByteOrder, id uint32, se *giop.SystemException, doc *ifsvr.Document) giop.Message {
	var contexts []giop.ServiceContext
	if doc != nil {
		contexts = []giop.ServiceContext{giop.DocContext{
			Version: doc.Version, DescriptorVersion: doc.DescriptorVersion,
			Epoch: doc.Epoch, Generation: doc.Generation, Text: doc.Content,
		}.Context(order)}
	}
	msg, _ := giop.EncodeReply(order, giop.ReplyHeader{Contexts: contexts, RequestID: id, Status: giop.ReplySystemException}, se.Encode)
	return msg // se.Encode cannot fail
}

// AppErrorReply is the reply to request id raising the generic user
// exception with message: how every error a method body returns reaches
// the client (Section 5.2.3).
func AppErrorReply(order cdr.ByteOrder, id uint32, message string) giop.Message {
	msg, _ := giop.EncodeReply(order, giop.ReplyHeader{RequestID: id, Status: giop.ReplyUserException},
		func(e *cdr.Encoder) error {
			e.WriteString(AppErrorRepoID)
			e.WriteString(message)
			return nil
		})
	return msg // the body cannot fail
}
