package core

import (
	"context"
	"fmt"

	"livedev/internal/cdr"
	"livedev/internal/dyn"
	"livedev/internal/giop"
	"livedev/internal/idl"
	"livedev/internal/iiop"
	"livedev/internal/ior"
	"livedev/internal/orb"
)

// CORBAServer is the CORBA subsystem for one managed class (Figure 5): an
// IDL Generator feeding the ClassServer's DL Publisher, the Server ORB (an
// IIOP listener), the published IOR, and the CORBA Call Handler, "a simple
// wrapper around the Server ORB" (Section 5.2): serve, which resolves each
// operation against the live interface at dispatch — the Dynamic Skeleton
// Interface idea, so interface changes never require ORB reinitialization
// (Section 5.2.2) — and renders the Reply straight into GIOP.
type CORBAServer struct {
	*ClassServer
	ref     ior.IOR
	iorPath string
}

var _ Server = (*CORBAServer)(nil)

func newCORBAServer(m *Manager, class *dyn.Class) (*CORBAServer, error) {
	s := &CORBAServer{iorPath: "/ior/" + class.Name() + ".ior"}
	s.ClassServer = m.NewClassServer(class, TechCORBA, "/idl/"+class.Name()+".idl", "text/plain",
		func(desc dyn.InterfaceDescriptor) (string, error) {
			doc, err := idl.Generate(desc)
			if err != nil {
				return "", err
			}
			return idl.Print(doc), nil
		})

	// The Server ORB is initialized by the CORBA End Point and the IOR is
	// published via the publication store (Section 5.2.1) — before the basic
	// IDL document Register publishes next, so anyone who can see the IDL
	// can already bootstrap the connection.
	typeID := fmt.Sprintf("IDL:%sModule/%s:1.0", class.Name(), class.Name())
	srv := iiop.NewServer(iiop.HandlerFunc(s.serve))
	ref, err := orb.Listen(srv, m.cfg.CORBAAddr, typeID, []byte(class.Name()))
	if err != nil {
		_ = s.Close()
		return nil, fmt.Errorf("core: starting server ORB: %w", err)
	}
	s.ref = ref
	m.store.Publish(s.iorPath, "text/plain", ref.String())
	s.OnClose(func() error {
		err := srv.Close()
		m.store.Remove(s.iorPath)
		return err
	})
	return s, nil
}

// IOR returns the server object's interoperable object reference.
func (s *CORBAServer) IOR() ior.IOR { return s.ref }

// IORURL returns the URL the stringified IOR is published at.
func (s *CORBAServer) IORURL() string { return s.mgr.InterfaceBaseURL() + s.iorPath }

// FaultTextServerNotInitialized is the message CORBA clients receive (in
// the generic application exception) for calls to a not-yet-initialized
// server — the analogue of the SOAP subsystem's "Server not initialized"
// fault.
const FaultTextServerNotInitialized = "Server not initialized"

// serve is the CORBA Call Handler. A request for another object key is
// OBJECT_NOT_EXIST; a stale one is BAD_OPERATION, whose minor code says how
// it missed the live interface: 1 unknown operation, 2 changed between
// resolve and dispatch, 3 arguments that do not decode under the current
// signature, 4 argument octets left over (the client's stale signature had
// more parameters than the current one). Every error a method body returns
// is the generic application exception (Section 5.2.3).
func (s *CORBAServer) serve(ctx context.Context, h giop.RequestHeader, args *cdr.Decoder, order cdr.ByteOrder) giop.Message {
	if string(h.ObjectKey) != s.class.Name() {
		return orb.ExceptionReply(order, h.RequestID,
			&giop.SystemException{RepoID: giop.RepoObjectNotExist, Minor: 1, Completed: giop.CompletedNo}, nil)
	}
	minor := uint32(2)
	rep := s.Call(ctx, func(live dyn.InterfaceDescriptor) (string, []dyn.Value, error) {
		sig, ok := live.Lookup(h.Operation)
		if !ok {
			minor = 1
			return h.Operation, nil, ErrMisfit
		}
		vals := make([]dyn.Value, len(sig.Params))
		for i, p := range sig.Params {
			var err error
			if vals[i], err = cdr.DecodeValue(args, p.Type); err != nil {
				// Encoded against a stale signature (Section 5.6: "Client
				// calls for stale method signatures may also trigger updates").
				minor = 3
				return h.Operation, nil, ErrMisfit
			}
		}
		if args.Remaining() > 0 {
			minor = 4
			return h.Operation, nil, ErrMisfit
		}
		return h.Operation, vals, nil
	})
	switch rep.Outcome {
	case OutcomeOK:
		return orb.ResultReply(order, h.RequestID, rep.Value)
	case OutcomeStale:
		return orb.ExceptionReply(order, h.RequestID, orb.BadOperation(minor), rep.Doc)
	case OutcomeInactive:
		return orb.AppErrorReply(order, h.RequestID, FaultTextServerNotInitialized)
	default:
		// The body's error — or an abandoned call's, which nobody reads.
		return orb.AppErrorReply(order, h.RequestID, rep.Err.Error())
	}
}
