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
			docs := NewDocSource(url, opts.HTTPClient, opts.Prefetched)
			docs.SetEndpoints(opts.Endpoints)
			return NewClientContext(ctx,
				&soapBackend{docs: docs, httpClient: opts.HTTPClient}, opts)
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
	var seedIDL, seedIOR *ifsvr.Document
	if isIOR {
		idlURL, iorURL = opts.AuxURL, url
		if idlURL == "" {
			idlURL = strings.Replace(strings.TrimSuffix(path, ".ior")+".idl", "/ior/", "/idl/", 1)
		}
		seedIOR = opts.Prefetched
	} else {
		if iorURL == "" {
			iorURL = strings.Replace(strings.TrimSuffix(path, ".idl")+".ior", "/idl/", "/ior/", 1)
		}
		seedIDL = opts.Prefetched
	}
	if idlURL == "" || iorURL == "" {
		return nil, errors.New("cde: CORBA binding needs both IDL and IOR URLs")
	}
	b := &corbaBackend{
		idlDocs: NewDocSource(idlURL, opts.HTTPClient, seedIDL),
		iorDocs: NewDocSource(iorURL, opts.HTTPClient, seedIOR),
	}
	b.idlDocs.SetEndpoints(opts.Endpoints)
	b.iorDocs.SetEndpoints(opts.Endpoints)
	return NewClientContext(ctx, b, opts)
}

// soapBackend is the Apache-Axis-equivalent client plumbing: WSDL compiler
// plus SOAP-over-HTTP invocation (paper Figure 1).
type soapBackend struct {
	docs       *DocSource
	httpClient *http.Client

	mu     sync.RWMutex
	caller *soap.Client
}

var _ Backend = (*soapBackend)(nil)

// NewSOAPClient builds a CDE client from the WSDL document published at
// wsdlURL. httpClient may be nil.
func NewSOAPClient(wsdlURL string, httpClient *http.Client) (*Client, error) {
	return NewClientContext(context.Background(),
		&soapBackend{docs: NewDocSource(wsdlURL, httpClient, nil), httpClient: httpClient}, nil)
}

// Technology implements Backend.
func (b *soapBackend) Technology() string { return "SOAP" }

// compile turns a fetched (or pushed) WSDL document into the descriptor and
// retargets the SOAP caller at the advertised endpoint.
func (b *soapBackend) compile(doc ifsvr.Document) (dyn.InterfaceDescriptor, DocVersions, error) {
	parsed, err := wsdl.Parse([]byte(doc.Content))
	if err != nil {
		return dyn.InterfaceDescriptor{}, DocVersions{}, fmt.Errorf("cde: compiling WSDL: %w", err)
	}
	b.mu.Lock()
	b.caller = &soap.Client{
		Endpoint:   parsed.Endpoint,
		ServiceNS:  parsed.TargetNS,
		HTTPClient: b.httpClient,
	}
	b.mu.Unlock()
	return parsed.Descriptor(), DocVersions{Doc: doc.Version, Descriptor: doc.DescriptorVersion, Epoch: doc.Epoch, Generation: doc.Generation}, nil
}

// FetchInterface implements Backend: fetch the WSDL and compile it.
func (b *soapBackend) FetchInterface(ctx context.Context) (dyn.InterfaceDescriptor, DocVersions, error) {
	doc, err := b.docs.Fetch(ctx)
	if err != nil {
		return dyn.InterfaceDescriptor{}, DocVersions{}, err
	}
	return b.compile(doc)
}

// StreamInterface implements WatchableBackend over the Interface Server's
// SSE watch transport.
func (b *soapBackend) StreamInterface(ctx context.Context, afterEpoch uint64, deliver func(InterfaceEvent)) error {
	return b.docs.Stream(ctx, afterEpoch, func(ev ifsvr.StreamEvent) {
		desc, vers, err := b.compile(ev.Doc)
		if err != nil {
			return // a malformed intermediate version; the next event supersedes it
		}
		deliver(InterfaceEvent{Desc: desc, Versions: vers, Replayed: ev.Replayed, Snapshot: ev.Snapshot})
	})
}

// Invoke implements Backend.
func (b *soapBackend) Invoke(ctx context.Context, sig dyn.MethodSig, args []dyn.Value) (dyn.Value, error) {
	b.mu.RLock()
	caller := b.caller
	b.mu.RUnlock()
	if caller == nil {
		return dyn.Value{}, errors.New("cde: SOAP backend not initialized")
	}
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
	return caller.CallContext(ctx, sig.Name, named, sig.Result)
}

// IsStale implements Backend.
func (b *soapBackend) IsStale(err error) bool { return soap.IsNonExistentMethod(err) }

// Close implements Backend.
func (b *soapBackend) Close() error { return nil }

// corbaBackend is the OpenORB-DII-equivalent client plumbing: IDL compiler,
// IOR bootstrap, IIOP invocation (paper Figure 2). The IIOP connection is
// drawn from the process-wide endpoint pool, so every backend (and every
// compiled stub) bound to the same published IOR multiplexes one TCP
// connection.
type corbaBackend struct {
	idlDocs *DocSource
	iorDocs *DocSource

	mu      sync.Mutex
	conn    *orb.ClientORB
	release func() error // returns the pooled connection
	iface   string       // interface name from the IOR type id
	// lastGeneration is the store restart generation of the last compiled
	// IDL document. A change means the Interface Server process restarted
	// — whether or not it recovered its durable state, the old ORB socket
	// died with it — which triggers the pool probe below.
	lastGeneration uint64
	// lastDescriptor is the descriptor version of the last compiled IDL
	// document — the legacy restart heuristic: against stores predating
	// the generation header (Generation 0), and for a class server
	// redeployed under a still-running store, a descriptor version moving
	// backwards means the server restarted (a fresh class restarts its
	// edit counter while the document version resumes its sequence), so
	// the pooled connection is probed and, if dead, evicted — the next
	// call must not burn a round-trip on the dead socket.
	lastDescriptor uint64
}

var _ Backend = (*corbaBackend)(nil)

// NewCORBAClient builds a CDE client from the CORBA-IDL document and
// stringified IOR published at the given URLs. httpClient may be nil.
func NewCORBAClient(idlURL, iorURL string, httpClient *http.Client) (*Client, error) {
	return NewClientContext(context.Background(), &corbaBackend{
		idlDocs: NewDocSource(idlURL, httpClient, nil),
		iorDocs: NewDocSource(iorURL, httpClient, nil),
	}, nil)
}

// Technology implements Backend.
func (b *corbaBackend) Technology() string { return "CORBA" }

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

// connect dials the server ORB if not yet connected, using the published
// IOR (Figure 2 step 1).
func (b *corbaBackend) connect(ctx context.Context) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.conn != nil {
		return nil
	}
	doc, err := b.iorDocs.Fetch(ctx)
	if err != nil {
		return err
	}
	ref, err := ior.ParseString(doc.Content)
	if err != nil {
		return fmt.Errorf("cde: parsing IOR: %w", err)
	}
	name, err := interfaceNameFromTypeID(ref.TypeID)
	if err != nil {
		return err
	}
	conn, release, err := sharedORBs.acquire(ctx, ref)
	if err != nil {
		return fmt.Errorf("cde: initializing client ORB: %w", err)
	}
	b.conn = conn
	b.release = release
	b.iface = name
	return nil
}

// compile turns a fetched (or pushed) IDL document into the descriptor.
// A restart-generation change across compilations — or, against servers
// predating the generation header and for class redeployments under a
// still-running store, a descriptor version moving backwards — is the
// server-restart signal: the pooled IIOP connection is probed and, if
// dead, evicted immediately instead of on the next failing call.
func (b *corbaBackend) compile(doc ifsvr.Document) (dyn.InterfaceDescriptor, DocVersions, error) {
	parsed, err := idl.Parse(doc.Content)
	if err != nil {
		return dyn.InterfaceDescriptor{}, DocVersions{}, fmt.Errorf("cde: compiling IDL: %w", err)
	}
	b.mu.Lock()
	name := b.iface
	restarted := doc.DescriptorVersion < b.lastDescriptor ||
		(doc.Generation != 0 && b.lastGeneration != 0 && doc.Generation != b.lastGeneration)
	b.mu.Unlock()
	if restarted {
		// Probe before anything can fail below: the signal must not be lost
		// to an unresolvable intermediate document. A false alarm costs
		// nothing — a live connection survives the probe.
		b.evictRestartedConn()
	}
	desc, err := idl.Resolve(parsed, name)
	if err != nil {
		return dyn.InterfaceDescriptor{}, DocVersions{}, fmt.Errorf("cde: resolving IDL: %w", err)
	}
	b.mu.Lock()
	b.lastDescriptor = doc.DescriptorVersion
	b.lastGeneration = doc.Generation
	b.mu.Unlock()
	return desc, DocVersions{Doc: doc.Version, Descriptor: doc.DescriptorVersion, Epoch: doc.Epoch, Generation: doc.Generation}, nil
}

// evictRestartedConn probes the backend's pooled IIOP connection after a
// generation-change signal. If the socket is dead it is dropped from the
// endpoint pool (so sibling Dials re-dial too), this backend releases its
// hold, and the next Invoke reconnects from the freshly published IOR. A
// false alarm — the connection still alive — costs nothing.
func (b *corbaBackend) evictRestartedConn() {
	b.mu.Lock()
	conn, release := b.conn, b.release
	b.mu.Unlock()
	if conn == nil || !conn.Broken() {
		return
	}
	sharedORBs.evictBroken(conn)
	b.mu.Lock()
	if b.conn != conn {
		// A concurrent reconnect already replaced it; leave the new one be.
		b.mu.Unlock()
		return
	}
	b.conn, b.release = nil, nil
	b.mu.Unlock()
	_ = release()
}

// FetchInterface implements Backend: fetch and compile the CORBA-IDL
// document (Figure 2's IDL compiler).
func (b *corbaBackend) FetchInterface(ctx context.Context) (dyn.InterfaceDescriptor, DocVersions, error) {
	if err := b.connect(ctx); err != nil {
		return dyn.InterfaceDescriptor{}, DocVersions{}, err
	}
	doc, err := b.idlDocs.Fetch(ctx)
	if err != nil {
		return dyn.InterfaceDescriptor{}, DocVersions{}, err
	}
	return b.compile(doc)
}

// StreamInterface implements WatchableBackend by streaming the published
// IDL document.
func (b *corbaBackend) StreamInterface(ctx context.Context, afterEpoch uint64, deliver func(InterfaceEvent)) error {
	if err := b.connect(ctx); err != nil {
		return err
	}
	return b.idlDocs.Stream(ctx, afterEpoch, func(ev ifsvr.StreamEvent) {
		desc, vers, err := b.compile(ev.Doc)
		if err != nil {
			return // a malformed intermediate version; the next event supersedes it
		}
		deliver(InterfaceEvent{Desc: desc, Versions: vers, Replayed: ev.Replayed, Snapshot: ev.Snapshot})
	})
}

// Invoke implements Backend via DII. A backend whose pooled connection was
// evicted after a server restart reconnects here, from the freshly
// published IOR.
func (b *corbaBackend) Invoke(ctx context.Context, sig dyn.MethodSig, args []dyn.Value) (dyn.Value, error) {
	b.mu.Lock()
	conn := b.conn
	b.mu.Unlock()
	if conn == nil {
		if err := b.connect(ctx); err != nil {
			return dyn.Value{}, err
		}
		b.mu.Lock()
		conn = b.conn
		b.mu.Unlock()
	}
	return conn.InvokeContext(ctx, sig, args)
}

// IsStale implements Backend.
func (b *corbaBackend) IsStale(err error) bool {
	return errors.Is(err, orb.ErrNonExistentMethod)
}

// Close implements Backend: the pooled connection is released, not closed —
// it is torn down when the last holder lets go.
func (b *corbaBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.conn == nil {
		return nil
	}
	err := b.release()
	b.conn = nil
	b.release = nil
	return err
}
