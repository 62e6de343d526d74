package orb

import (
	"context"
	"errors"
	"fmt"

	"livedev/internal/cdr"
	"livedev/internal/dyn"
	"livedev/internal/giop"
	"livedev/internal/iiop"
	"livedev/internal/ior"
)

// ErrNonExistentMethod is the client-visible form of the paper's "Non
// Existent Method" exception on the CORBA path: the server's live interface
// no longer (or does not yet) contain the invoked operation. Receiving it
// guarantees the server has already published an up-to-date interface
// description (Section 5.7), so the CDE reacts by installing the IDL the
// reply carries (StaleError.Interface), or by re-fetching it.
var ErrNonExistentMethod = errors.New("orb: non-existent method")

// ClientORB is a DII client endpoint bound to one remote object.
type ClientORB struct {
	conn      *iiop.Conn
	objectKey []byte
	typeID    string
	order     cdr.ByteOrder
}

// DialIOR is DialIORContext with a background context.
func DialIOR(r ior.IOR) (*ClientORB, error) {
	return DialIORContext(context.Background(), r)
}

// DialIORContext connects to the object an IOR designates (paper Figure 2:
// the IOR initializes the client ORB). The TCP connect is bounded by ctx.
func DialIORContext(ctx context.Context, r ior.IOR) (*ClientORB, error) {
	p, err := r.FirstIIOP()
	if err != nil {
		return nil, err
	}
	conn, err := iiop.DialContext(ctx, p.Addr())
	if err != nil {
		return nil, err
	}
	return &ClientORB{
		conn:      conn,
		objectKey: append([]byte(nil), p.ObjectKey...),
		typeID:    r.TypeID,
		order:     cdr.BigEndian,
	}, nil
}

// TypeID returns the repository id from the IOR.
func (o *ClientORB) TypeID() string { return o.typeID }

// Close tears down the connection.
func (o *ClientORB) Close() error { return o.conn.Close() }

// Broken reports whether the underlying IIOP connection is no longer
// usable (closed or failed); the CDE's connection pool evicts broken
// entries so new Dials reconnect instead of inheriting a dead socket.
func (o *ClientORB) Broken() bool { return o.conn.Broken() }

// InvokeContext performs a dynamic invocation: the arguments are encoded
// in CDR as given, and the result is decoded per sig.Result. It does not
// check args against sig (cde.Client does, before the call); a server
// whose live signature differs refuses the call as stale. Cancelling ctx
// aborts the in-flight IIOP invocation (a GIOP CancelRequest is sent, the
// eventual reply is dropped) and returns an error wrapping ctx.Err().
//
// Error space: a *StaleError, matching ErrNonExistentMethod and wrapping the
// BAD_OPERATION system exception, when the operation is gone from the live
// interface; *AppError
// for server application exceptions; *giop.SystemException for other
// system exceptions; context and transport errors otherwise.
func (o *ClientORB) InvokeContext(ctx context.Context, sig dyn.MethodSig, args []dyn.Value) (dyn.Value, error) {
	// InvokeInto scopes the reply body to the closure so the transport can
	// recycle its buffer; everything extracted below (values, exception
	// strings) is copied by the plain cdr read paths.
	var result dyn.Value
	err := o.conn.InvokeInto(ctx, o.objectKey, sig.Name, o.order, func(e *cdr.Encoder) error {
		for _, a := range args {
			if err := cdr.EncodeValue(e, a); err != nil {
				return err
			}
		}
		return nil
	}, func(hdr giop.ReplyHeader, body *cdr.Decoder) error {
		switch hdr.Status {
		case giop.ReplyNoException:
			v, err := cdr.DecodeValue(body, sig.Result)
			if err != nil {
				return fmt.Errorf("orb: decoding %s result: %w", sig.Name, err)
			}
			result = v
			return nil
		case giop.ReplyUserException:
			repoID, err := body.ReadString()
			if err != nil {
				return fmt.Errorf("orb: decoding user exception: %w", err)
			}
			if repoID != AppErrorRepoID {
				return fmt.Errorf("orb: unexpected user exception %s", repoID)
			}
			msg, err := body.ReadString()
			if err != nil {
				return fmt.Errorf("orb: decoding user exception message: %w", err)
			}
			return &AppError{Message: msg}
		case giop.ReplySystemException:
			se, err := giop.DecodeSystemException(body)
			if err != nil {
				return fmt.Errorf("orb: decoding system exception: %w", err)
			}
			if se.RepoID == giop.RepoBadOperation {
				return &StaleError{Operation: sig.Name, Exception: se, Interface: carriedDoc(hdr.Contexts)}
			}
			return se
		default:
			return fmt.Errorf("orb: unsupported reply status %s", hdr.Status)
		}
	})
	if err != nil {
		return dyn.Value{}, err
	}
	return result, nil
}
