package core

import (
	"context"
	"errors"
	"fmt"

	"livedev/internal/cdr"
	"livedev/internal/dyn"
	"livedev/internal/idl"
	"livedev/internal/ior"
	"livedev/internal/orb"
)

// CORBAServer is the CORBA subsystem for one managed class (Figure 5): an
// IDL Generator feeding the ClassServer's DL Publisher, a Server ORB (with
// DSI, so interface changes never require ORB reinitialization — Section
// 5.2.2), the published IOR, and the CORBA Call Handler: "a simple wrapper
// around the Server ORB" (Section 5.2), here the orb.DSITarget the ORB
// hands each request to.
type CORBAServer struct {
	*ClassServer
	ref     ior.IOR
	iorPath string
}

var _ Server = (*CORBAServer)(nil)
var _ orb.DSITarget = (*CORBAServer)(nil)

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
	orbSrv := orb.NewServerORB(typeID, []byte(class.Name()), s)
	ref, err := orbSrv.Listen(m.cfg.CORBAAddr)
	if err != nil {
		_ = s.Close()
		return nil, fmt.Errorf("core: starting server ORB: %w", err)
	}
	s.ref = ref
	m.store.Publish(s.iorPath, "text/plain", ref.String())
	s.OnClose(func() error {
		err := orbSrv.Close()
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

var errServerNotInitialized = errors.New(FaultTextServerNotInitialized)

// Invoke implements orb.DSITarget. The BAD_OPERATION minor code says how
// the request missed the live interface: 1 unknown operation, 2 changed
// between resolve and dispatch, 3 arguments that do not decode under the
// current signature, 4 argument octets left over (the client's stale
// signature had more parameters than the current one).
func (s *CORBAServer) Invoke(ctx context.Context, req orb.ServerRequest) (dyn.Value, error) {
	minor := uint32(2)
	rep := s.Call(ctx, func(live dyn.InterfaceDescriptor) (string, []dyn.Value, error) {
		sig, ok := live.Lookup(req.Operation)
		if !ok {
			minor = 1
			return req.Operation, nil, ErrMisfit
		}
		args := make([]dyn.Value, len(sig.Params))
		for i, p := range sig.Params {
			var err error
			if args[i], err = cdr.DecodeValue(req.Args, p.Type); err != nil {
				// Encoded against a stale signature (Section 5.6: "Client
				// calls for stale method signatures may also trigger updates").
				minor = 3
				return req.Operation, nil, ErrMisfit
			}
		}
		if req.Args.Remaining() > 0 {
			minor = 4
			return req.Operation, nil, ErrMisfit
		}
		return req.Operation, args, nil
	})
	switch rep.Outcome {
	case OutcomeOK:
		return rep.Value, nil
	case OutcomeStale:
		return dyn.Value{}, &orb.StaleError{Operation: req.Operation, Exception: orb.BadOperation(minor), Interface: rep.Doc}
	case OutcomeInactive:
		return dyn.Value{}, errServerNotInitialized
	default:
		// The body's error, which the ORB wraps in the generic exception —
		// or an abandoned call's, which nobody reads.
		return dyn.Value{}, rep.Err
	}
}
