package cde

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"livedev/internal/dyn"
	"livedev/internal/idl"
	"livedev/internal/ifsvr"
	"livedev/internal/ior"
	"livedev/internal/orb"
	"livedev/internal/soap"
	"livedev/internal/wsdl"
)

// Caller performs calls against the endpoint one compiled interface
// document advertises — the transport half of a client stub (soap.Client,
// the pooled IIOP connection, jsonb.Caller, h2b.Caller).
type Caller interface {
	// Call performs one RPC against sig. Cancelling ctx must abort the
	// transport exchange and surface an error wrapping ctx.Err().
	Call(ctx context.Context, sig dyn.MethodSig, args []dyn.Value) (dyn.Value, error)
}

// DocBinding is everything one technology supplies to the client side: a
// document parser and what it takes to call the endpoint the document
// names. The Client ConnectDocs builds over it does the rest — fetching,
// the streaming watch, version bookkeeping, installing each new document's
// Caller with the view compiled from it.
type DocBinding struct {
	// Technology names the binding ("SOAP", "CORBA", "JSON", ...).
	Technology string
	// Compile parses one published interface document into the descriptor
	// and the Caller for the endpoint it advertises.
	Compile func(doc ifsvr.Document) (dyn.InterfaceDescriptor, Caller, error)
	// IsStale reports whether err is this technology's "Non Existent
	// Method" signal — what triggers the client's reactive refresh.
	IsStale func(err error) bool
	// StaleDoc, when set, returns the interface document a stale err
	// carried (nil when it carried none): the client installs it instead of
	// fetching the document.
	StaleDoc func(err error) *ifsvr.Document
	// Bootstrap, when set, runs before every fetch: whatever Compile needs
	// beyond the document (CORBA's IOR). A stream needs none of its own:
	// the client that holds one has fetched already.
	Bootstrap func(ctx context.Context) error
	// Close, when set, releases what Bootstrap and the Callers hold.
	Close func() error
}

// ConnectDocs is the Connect of every document-described binding: a live
// client over the interface document at url, seeded and pointed at replicas
// as opts (which may be nil) say.
func ConnectDocs(ctx context.Context, url string, opts *DialOptions, b DocBinding) (*Client, error) {
	return connect(ctx, optsDocSource(url, opts, true), b, opts)
}

// optsDocSource builds the DocSource for url under opts: its HTTP client,
// its replica endpoints and — when seeded — its prefetched document.
func optsDocSource(url string, opts *DialOptions, seeded bool) *DocSource {
	if opts == nil {
		return NewDocSource(url, nil, nil)
	}
	var seed *ifsvr.Document
	if seeded {
		seed = opts.Prefetched
	}
	docs := NewDocSource(url, opts.HTTPClient, seed)
	docs.SetEndpoints(opts.Endpoints)
	return docs
}

// The built-in SOAP and CORBA connectors register themselves so that
// cde.Dial (and livedev.Dial) resolve them by name or document sniffing
// exactly like any third-party binding.
func init() {
	RegisterConnector(Connector{
		Name: "SOAP",
		Match: DocMatch{
			ContentTypes: []string{"text/xml", "application/wsdl+xml"},
			PathSuffixes: []string{".wsdl"},
			Content: func(doc string) bool {
				return strings.Contains(doc, "<definitions") || strings.Contains(doc, ":definitions")
			},
		},
		Connect: func(ctx context.Context, url string, opts *DialOptions) (*Client, error) {
			return ConnectDocs(ctx, url, opts, soapBinding(opts.HTTPClient))
		},
	})
	RegisterConnector(Connector{
		Name: "CORBA",
		Match: DocMatch{
			ContentTypes: []string{}, // IDL and IORs are published as text/plain, too generic to claim
			PathSuffixes: []string{".idl", ".ior"},
			Content: func(doc string) bool {
				return strings.HasPrefix(doc, "IOR:") || strings.Contains(doc, "interface ")
			},
		},
		Connect: connectCORBA,
	})
}

// soapBinding is the Apache-Axis-equivalent client plumbing: WSDL compiler
// plus SOAP-over-HTTP invocation (paper Figure 1).
func soapBinding(httpClient *http.Client) DocBinding {
	return DocBinding{
		Technology: "SOAP",
		Compile: func(doc ifsvr.Document) (dyn.InterfaceDescriptor, Caller, error) {
			parsed, err := wsdl.Parse([]byte(doc.Content))
			if err != nil {
				return dyn.InterfaceDescriptor{}, nil, fmt.Errorf("cde: compiling WSDL: %w", err)
			}
			return parsed.Descriptor(), soapCaller{&soap.Client{
				Endpoint:   parsed.Endpoint,
				ServiceNS:  parsed.TargetNS,
				HTTPClient: httpClient,
			}}, nil
		},
		IsStale: soap.IsNonExistentMethod,
		StaleDoc: func(err error) *ifsvr.Document {
			var f *soap.Fault
			if errors.As(err, &f) {
				return f.Interface
			}
			return nil
		},
	}
}

// soapCaller adapts soap.Client, which names its parameters, to Caller.
type soapCaller struct{ c *soap.Client }

// Call implements Caller.
func (s soapCaller) Call(ctx context.Context, sig dyn.MethodSig, args []dyn.Value) (dyn.Value, error) {
	if len(args) != len(sig.Params) {
		return dyn.Value{}, fmt.Errorf("cde: %s takes %d arguments, got %d", sig.Name, len(sig.Params), len(args))
	}
	named := make([]soap.NamedValue, len(args))
	for i, a := range args {
		if !a.Type().Equal(sig.Params[i].Type) {
			return dyn.Value{}, fmt.Errorf("cde: %s parameter %s wants %s, got %s",
				sig.Name, sig.Params[i].Name, sig.Params[i].Type, a.Type())
		}
		named[i] = soap.NamedValue{Name: sig.Params[i].Name, Value: a}
	}
	return s.c.CallContext(ctx, sig.Name, named, sig.Result)
}

// connectCORBA accepts either the IDL-document URL or the IOR URL as the
// primary URL; the counterpart comes from opts.AuxURL or, failing that, the
// SDE's publication path convention (/idl/Name.idl <-> /ior/Name.ior).
func connectCORBA(ctx context.Context, url string, opts *DialOptions) (*Client, error) {
	// Classify the primary document the same way the sniffer does: suffix
	// on the query-stripped path, with the fetched content ("IOR:" prefix)
	// as the fallback signal for unconventional URLs.
	path := url
	if i := strings.IndexByte(path, '?'); i >= 0 {
		path = path[:i]
	}
	isIOR := strings.HasSuffix(path, ".ior") ||
		(opts.Prefetched != nil && strings.HasPrefix(opts.Prefetched.Content, "IOR:"))

	idlURL, iorURL := url, opts.AuxURL
	if isIOR {
		idlURL, iorURL = opts.AuxURL, url
		if idlURL == "" {
			idlURL = strings.Replace(strings.TrimSuffix(path, ".ior")+".idl", "/ior/", "/idl/", 1)
		}
	} else if iorURL == "" {
		iorURL = strings.Replace(strings.TrimSuffix(path, ".idl")+".ior", "/idl/", "/ior/", 1)
	}
	if idlURL == "" || iorURL == "" {
		return nil, errors.New("cde: CORBA binding needs both IDL and IOR URLs")
	}
	// The prefetched document seeds whichever source the primary URL names.
	return connect(ctx, optsDocSource(idlURL, opts, !isIOR), corbaBinding(optsDocSource(iorURL, opts, isIOR)), opts)
}

// corbaStub is the OpenORB-DII-equivalent client plumbing: IDL compiler,
// IOR bootstrap, IIOP invocation (paper Figure 2). It is its own Caller:
// the IIOP connection does not change with the document but with the
// server's incarnation, and the connection itself says when that ended
// (Broken). The connection is drawn from the process-wide endpoint pool,
// so every stub bound to the same published IOR multiplexes one TCP
// connection.
type corbaStub struct {
	iorDocs *DocSource

	mu      sync.Mutex
	conn    *orb.ClientORB
	release func() error // returns the pooled connection
	iface   string       // interface name from the IOR type id
	closed  bool         // set by close: no connection is taken after it
}

// corbaBinding compiles IDL documents into calls through a stub
// bootstrapped from the IOR document iorDocs reads.
func corbaBinding(iorDocs *DocSource) DocBinding {
	b := &corbaStub{iorDocs: iorDocs}
	return DocBinding{
		Technology: "CORBA",
		Compile:    b.compile,
		IsStale:    func(err error) bool { return errors.Is(err, orb.ErrNonExistentMethod) },
		StaleDoc: func(err error) *ifsvr.Document {
			var stale *orb.StaleError
			if errors.As(err, &stale) {
				return stale.Interface
			}
			return nil
		},
		Bootstrap: func(ctx context.Context) error {
			_, err := b.take(ctx)
			return err
		},
		Close: b.close,
	}
}

// interfaceNameFromTypeID extracts "Calc" from "IDL:CalcModule/Calc:1.0".
func interfaceNameFromTypeID(typeID string) (string, error) {
	s, ok := strings.CutPrefix(typeID, "IDL:")
	if !ok {
		return "", fmt.Errorf("cde: unexpected repository id %q", typeID)
	}
	s, _, ok = strings.Cut(s, ":")
	if !ok {
		return "", fmt.Errorf("cde: unexpected repository id %q", typeID)
	}
	if i := strings.LastIndexByte(s, '/'); i >= 0 {
		s = s[i+1:]
	}
	if s == "" {
		return "", fmt.Errorf("cde: unexpected repository id %q", typeID)
	}
	return s, nil
}

// take returns the stub's pooled connection. One that is Broken — its
// server went away, or restarted — is let go first, and the stub
// reconnects from the freshly fetched IOR (Figure 2 step 1), as h1's and
// h2b's pools check a connection before they use it. A closed stub
// refuses: the reference it would take from the endpoint pool would never
// be released.
func (b *corbaStub) take(ctx context.Context) (*orb.ClientORB, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, errClosed
	}
	if b.conn != nil {
		if !b.conn.Broken() {
			return b.conn, nil
		}
		// The pool re-dials for the next acquire: its holders' releases
		// are bound to the dead entry, and the last of them closes it,
		// which can only report the failure Broken already did.
		_ = b.release()
		b.conn, b.release = nil, nil
	}
	doc, err := b.iorDocs.Fetch(ctx)
	if err != nil {
		return nil, err
	}
	ref, err := ior.ParseString(doc.Content)
	if err != nil {
		return nil, fmt.Errorf("cde: parsing IOR: %w", err)
	}
	name, err := interfaceNameFromTypeID(ref.TypeID)
	if err != nil {
		return nil, err
	}
	conn, release, err := sharedORBs.acquire(ctx, ref)
	if err != nil {
		return nil, fmt.Errorf("cde: initializing client ORB: %w", err)
	}
	b.conn, b.release, b.iface = conn, release, name
	return conn, nil
}

// compile turns a fetched (or pushed) IDL document into the descriptor
// (Figure 2's IDL compiler).
func (b *corbaStub) compile(doc ifsvr.Document) (dyn.InterfaceDescriptor, Caller, error) {
	parsed, err := idl.Parse(doc.Content)
	if err != nil {
		return dyn.InterfaceDescriptor{}, nil, fmt.Errorf("cde: compiling IDL: %w", err)
	}
	b.mu.Lock()
	name := b.iface
	b.mu.Unlock()
	desc, err := idl.Resolve(parsed, name)
	if err != nil {
		return dyn.InterfaceDescriptor{}, nil, fmt.Errorf("cde: resolving IDL: %w", err)
	}
	return desc, b, nil
}

// Call implements Caller via DII, over the connection take returns.
func (b *corbaStub) Call(ctx context.Context, sig dyn.MethodSig, args []dyn.Value) (dyn.Value, error) {
	conn, err := b.take(ctx)
	if err != nil {
		return dyn.Value{}, err
	}
	return conn.InvokeContext(ctx, sig, args)
}

// close releases the pooled connection rather than closing it — it is torn
// down when the last holder lets go — and keeps the stub from taking
// another.
func (b *corbaStub) close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	if b.conn == nil {
		return nil
	}
	err := b.release()
	b.conn = nil
	b.release = nil
	return err
}
