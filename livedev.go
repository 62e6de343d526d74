// Package livedev is a Go reproduction of "Supporting Live Development of
// SOAP and CORBA Servers" (Pallemulle, Goldman, Morgan; WUCSE-2004-75 /
// ICDCS 2005). It provides:
//
//   - a dynamic-class runtime (JPie's dynamic classes): classes whose
//     method signatures and implementations change at run time, effective
//     immediately on existing instances;
//   - the SDE (Server Development Environment) middleware: automated
//     deployment of servers from dynamic classes over any registered RMI
//     technology, automated publication of interface descriptions (WSDL /
//     CORBA-IDL / IOR / JSON / h2b descriptor) via an Interface Server,
//     the stable-timeout publication algorithm, and reactive forced
//     publication on stale client calls;
//   - the CDE (Client Development Environment): live clients whose stubs
//     are compiled from the published interface descriptions and refreshed
//     reactively — or pushed via the watch protocol (WithWatch), which
//     turns the client's interface view into a push-invalidated cache —
//     with a debugger supporting 'try again';
//   - an event-driven publication core: every binding publishes through a
//     versioned, epoch-numbered document store with watcher fan-out, in
//     which every publish commits before it returns (the stable timeout,
//     Config.Timeout, is what rations edit storms), a bounded replay
//     journal (Config.HistoryLen), and optional durability
//     (Config.DataDir: one snapshot plus one commit-ordered WAL, replayed
//     on open — a restarted server
//     resumes its epoch sequence, so reconnecting watchers ride journal
//     replay instead of refetching; Config.Sync picks the ack's
//     durability, from buffered through group-commit fsync), read by the
//     Interface Server and watchable over a streaming HTTP transport (SSE,
//     one held connection per watcher, journal-replay catch-up on
//     reconnect); plus ReExport, the live binding-agnostic
//     bridge (serve any registered binding's class over any other);
//   - complete SOAP 1.1 + WSDL 1.1 and CORBA (CDR, GIOP/IIOP, IOR, IDL,
//     DII/DSI ORBs) protocol stacks, built on the standard library only,
//     plus two bindings implemented purely against the public binding
//     seam: JSON/HTTP, and h2b — CDR-encoded call bodies multiplexed as
//     cleartext HTTP/2 streams on the binding's own fast-path listener,
//     one TCP connection per endpoint no matter how many calls are in
//     flight (docs/h2b-protocol.md). Everything on the shared HTTP
//     listeners — SOAP, JSON, h2b's plain-POST endpoint, interface
//     documents, watch streams — is HTTP/1.1.
//
// # The v2 API: Dial, options, bindings
//
// The facade re-exports the types a downstream user needs, so the whole
// system is usable through this single import. Calls are context-first —
// deadlines and cancellation propagate through the client, the wire
// protocol, and into server dispatch:
//
//	class := livedev.NewClass("Calc")
//	class.AddMethod(livedev.MethodSpec{ ... Distributed: true ... })
//	mgr, _ := livedev.NewManager(livedev.Config{})
//	// Production servers set Config.DataDir (sde-server: -data-dir) so the
//	// publication store survives restarts, and pick the ack's durability
//	// with Config.Sync (sde-server: -sync none|group|always; group = the
//	// publish returns once its record is fsynced, concurrent commits
//	// sharing each fsync).
//	srv, _ := mgr.Register(class, livedev.TechSOAP)
//	srv.CreateInstance()
//
//	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
//	defer cancel()
//	client, _ := livedev.Dial(ctx, srv.InterfaceURL(),
//	    livedev.WithTimeout(500*time.Millisecond))
//	sum, _ := client.CallContext(ctx, "add", livedev.Int32(2), livedev.Int32(3))
//
// Dial fetches the interface document once and sniffs which registered
// binding it belongs to (WSDL -> SOAP, IDL/IOR -> CORBA, JSON document ->
// JSON, h2b descriptor -> H2B), or obeys an explicit WithBinding option.
// Every call takes a context: the context-free Client.Call of the v1 API
// is gone.
//
// Concurrent callers should consider the h2b binding (H2BBinding): its
// CDR-over-HTTP/2 wire format multiplexes any number of in-flight calls
// as streams on one TCP connection per endpoint, where the text bindings
// pay per-call encode cost and HTTP/1.1 connection churn:
//
//	livedev.RegisterBinding(livedev.H2BBinding())
//	srv, _ := mgr.Register(class, livedev.Technology("H2B"))
//	client, _ := livedev.Dial(ctx, srv.InterfaceURL())
//	// N goroutines calling client share one connection; a cancelled
//	// context resets only that call's stream.
//
// # Replication
//
// The watch plane scales out horizontally: a manager started with
// Config.FollowURL (sde-server: -follow <leader-url>) is a read-only
// replica that watches the leader's all-paths stream and serves the
// replicated documents — GETs and SSE watch streams — under the leader's
// restart generation, while answering publications with 421
// Misdirected Request naming the leader. A replica's document GETs name
// the leader too (X-Interface-Leader), and a client reads its documents
// there, so an explicit read never returns a view older than the leader's.
// Watchers spread across replicas with WithEndpoints — failover between
// them is the watcher's ordinary reconnect, never a visible restart:
//
//	client, _ := livedev.Dial(ctx, replicaA+docPath, livedev.WithWatch(),
//	    livedev.WithEndpoints(replicaA, replicaB))
//
// See docs/replication.md for the follower's stream.
//
// # Adding an RMI technology
//
// An RMI technology is a Binding: a named pair of a server half (Serve
// deploys a dynamic class under a Manager) and a client half (Describe
// says what its interface documents look like, Connect builds a live
// client from one). RegisterBinding makes it available process-wide —
// Manager.Register resolves it by name and Dial by document sniffing —
// with no edits to this package or to core dispatch. See the Binding
// contract below; internal/jsonb is a complete worked example.
package livedev

import (
	"context"
	"net/http"
	"time"

	"livedev/internal/bridge"
	"livedev/internal/cde"
	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/h2b"
	"livedev/internal/jsonb"
)

// Dynamic-class runtime types (the JPie substrate).
type (
	// Class is a dynamic class: a mutable set of methods and fields whose
	// edits take effect immediately on live instances.
	Class = dyn.Class
	// Instance is a live object of a dynamic class.
	Instance = dyn.Instance
	// MethodSpec describes a method to add to a class.
	MethodSpec = dyn.MethodSpec
	// Param is a formal method parameter.
	Param = dyn.Param
	// Body is a method implementation.
	Body = dyn.Body
	// MemberID identifies a method or field across renames.
	MemberID = dyn.MemberID
	// Value is a dynamically typed value.
	Value = dyn.Value
	// Type describes a value type.
	Type = dyn.Type
	// StructField is a field of a struct type.
	StructField = dyn.StructField
	// MethodSig is an externally visible method signature.
	MethodSig = dyn.MethodSig
	// InterfaceDescriptor is a snapshot of a class's distributed interface.
	InterfaceDescriptor = dyn.InterfaceDescriptor
)

// SDE middleware types.
type (
	// Manager is the SDE Manager owning the Interface Server and the
	// managed server classes.
	Manager = core.Manager
	// Config configures a Manager.
	Config = core.Config
	// Server is a managed live server of any registered technology.
	Server = core.Server
	// Technology names an RMI technology: the registered binding's name.
	Technology = core.Technology
	// DLPublisher runs the stable-timeout publication algorithm.
	DLPublisher = core.DLPublisher
	// PublisherStats counts publisher activity.
	PublisherStats = core.PublisherStats
	// SyncPolicy picks when a durable store's publish ack is on disk
	// (Config.Sync; meaningful only with Config.DataDir).
	SyncPolicy = core.SyncPolicy
)

// Durability policies for Config.Sync, ordered by cost: acked once the OS
// has the bytes (buffered), acked after a shared group-commit fsync, acked
// after the commit's own inline fsync.
const (
	SyncNone        = core.SyncNone
	SyncGroupCommit = core.SyncGroupCommit
	SyncAlways      = core.SyncAlways
)

// CDE types.
type (
	// Client is a live CDE client.
	Client = cde.Client
	// Debugger records failed calls and supports TryAgain.
	Debugger = cde.Debugger
	// Exception is a failed call recorded by the debugger.
	Exception = cde.Exception
	// StaleMethodError reports a call to a method no longer on the server
	// interface; the client's view has been refreshed by delivery time.
	StaleMethodError = cde.StaleMethodError
	// DocMatch describes how a binding's interface documents are
	// recognized by Dial.
	DocMatch = cde.DocMatch
	// DialOptions is the resolved form of Dial's functional options,
	// passed through to a Binding's Connect.
	DialOptions = cde.DialOptions
)

// Binding is one RMI technology, pluggable process-wide via
// RegisterBinding. The SDE/CDE treat SOAP, CORBA, JSON, and any third-party
// technology through this one interface — a technology is a registry
// entry, not a cross-cutting edit.
//
// What an implementer supplies — the paper's protocol itself (Sections 4,
// 5.4, 5.6, 5.7) is written once, in core.ClassServer on the server side
// and the cde.Client that cde.ConnectDocs builds on the client side, and
// is not the binding's to get wrong:
//
//   - Name is the technology's registry key, used by Manager.Register
//     (as the Technology argument) and WithBinding. It must be non-empty
//     and stable.
//   - Serve deploys a dynamic class as a live server under a Manager: a
//     core.Server that embeds the *core.ClassServer from
//     Manager.NewClassServer — given the binding's document generator —
//     and a codec. An HTTP binding hands a core.HTTPCodec to
//     ClassServer.MountCalls: Decode reads one request against the live
//     interface it is handed, and Encode maps the core.Reply that comes
//     back (result, application error, non-existent method, malformed,
//     not initialized) to its reply's headers, body and status. The POST
//     check, the 16 MiB body cap, the pooled buffers and the one write
//     with a declared length come with the ClassServer, on the shared
//     endpoint: internal/h1's HTTP/1.1 server, whose request context's
//     Err reports a caller that has gone, which ClassServer.Call checks
//     before dispatch. A binding that streams, or speaks anything but an
//     HTTP/1.1 request and reply, owns a listener instead, released
//     through ClassServer.OnClose, passes a core.Resolve per request to
//     ClassServer.Call itself and maps the core.Reply to its own reply,
//     as CORBA's IIOP handler and h2b's mux do. Publication of the basic
//     description, the single instance, the gate, forced publication
//     before "non-existent method", counters and teardown come with the
//     ClassServer.
//   - Describe reports how the binding's published interface documents
//     are recognized, so Dial can route to it without an explicit option.
//   - Connect builds a live Client from an interface-document URL:
//     cde.ConnectDocs over a cde.DocBinding — a document parser returning
//     the descriptor and a cde.Caller for the endpoint the document
//     names, and an IsStale recognizing the technology's "non-existent
//     method" error (which is what triggers the client's reactive
//     interface refresh). The Caller must honor ctx for all I/O.
//     Fetching, WithTimeout, WithDebugger, replica endpoints and
//     WithWatch — push-invalidated interface caches over the Interface
//     Server's "?watch=stream&after=N" SSE endpoint, which every document
//     published through a ClassServer has — come with ConnectDocs.
//
// internal/jsonb is the worked example: a document grammar, a one-pass
// wire codec as an HTTPCodec and a Caller, wired up purely through
// RegisterBinding.
//
// internal/h2b is the binary worked example: the same contract carrying
// CDR-encoded bodies over HTTP/2 streams. It shows the two degrees of
// freedom HTTP-based bindings have beyond jsonb — a binding may own a
// dedicated listener next to its MountCalls mount (h2b's multiplexed fast
// path, the way CORBA owns its IIOP port), and its interface document may
// carry extra transport keys (h2b's "mux_endpoint") provided Describe
// still recognizes documents without them. Neither needs core or cde
// edits: both halves arrive through RegisterBinding like any other
// technology. See docs/h2b-protocol.md for its wire format.
type Binding interface {
	// Name is the technology name ("SOAP", "CORBA", "JSON", ...).
	Name() string
	// Serve deploys class as a live server under m.
	Serve(m *Manager, class *Class) (Server, error)
	// Describe reports how the binding's interface documents look.
	Describe() DocMatch
	// Connect builds a live client from an interface-document URL.
	Connect(ctx context.Context, url string, opts *DialOptions) (*Client, error)
}

// RegisterBinding adds (or replaces, by name) an RMI technology in the
// process-wide registry: its server half becomes available to
// Manager.Register and its client half to Dial.
func RegisterBinding(b Binding) {
	core.RegisterBinding(serverHalf{b})
	cde.RegisterConnector(cde.Connector{Name: b.Name(), Match: b.Describe(), Connect: b.Connect})
}

// Bindings returns the names of all registered server bindings, sorted.
func Bindings() []string { return core.BindingNames() }

// serverHalf adapts a Binding to the core registry's narrower interface.
type serverHalf struct{ b Binding }

func (s serverHalf) Name() string { return s.b.Name() }
func (s serverHalf) Serve(m *core.Manager, class *dyn.Class) (core.Server, error) {
	return s.b.Serve(m, class)
}

// Bridge is a live, binding-agnostic re-export: the class behind a CDE
// client served over another registered RMI technology. See ReExport.
type Bridge = bridge.Front

// ReExport deploys a re-export of the class behind backend as a live
// server of technology tech under m — SOAP served over CORBA, CORBA over
// JSON, or any other direction the binding registry supports. The bridge
// mirrors the backend's live interface into a proxy class whose methods
// forward over the backend; backend-side edits propagate through the
// bridge's own publication (event-driven when backend was dialed with
// WithWatch), and stale bridged calls keep the Section 5.7 recency
// guarantee end to end. The caller owns backend and must close it after
// the bridge.
func ReExport(m *Manager, name string, backend *Client, tech Technology) (*Bridge, error) {
	return bridge.New(m, name, backend, tech)
}

// JSONBinding returns the built-in JSON/HTTP binding — dynamic classes
// served over JSON-POST with a machine-readable interface document. It is
// not registered by default; pass it to RegisterBinding to enable it:
//
//	livedev.RegisterBinding(livedev.JSONBinding())
//	srv, _ := mgr.Register(class, livedev.Technology("JSON"))
//	client, _ := livedev.Dial(ctx, srv.InterfaceURL())
func JSONBinding() Binding { return jsonb.New() }

// H2BBinding returns the built-in multiplexed binary binding — dynamic
// classes called with CDR-encoded bodies over cleartext HTTP/2 on the
// binding's fast-path listener (one TCP connection per endpoint,
// concurrent calls as concurrent streams; see docs/h2b-protocol.md). It
// is not registered by default; pass it to
// RegisterBinding to enable it:
//
//	livedev.RegisterBinding(livedev.H2BBinding())
//	srv, _ := mgr.Register(class, livedev.Technology("H2B"))
//	client, _ := livedev.Dial(ctx, srv.InterfaceURL())
func H2BBinding() Binding { return h2b.New() }

// Option configures a Dial.
type Option func(*DialOptions)

// WithHTTPClient sets the HTTP client used for interface-document fetches
// and for SOAP and JSON calls (h2b calls never take it). Without it, calls
// go on the direct HTTP/1.1 client: pooled keep-alive connections to
// http:// endpoints, a 30 s ceiling on a call without a deadline. For
// calls, proxy settings from the environment apply only to a supplied
// client.
func WithHTTPClient(hc *http.Client) Option {
	return func(o *DialOptions) { o.HTTPClient = hc }
}

// WithTimeout sets a default per-call timeout: every call made through the
// client whose context carries no deadline of its own is bounded by d, as
// is the Dial itself (document sniffing, connect, initial interface fetch)
// when ctx has no deadline.
func WithTimeout(d time.Duration) Option {
	return func(o *DialOptions) { o.Timeout = d }
}

// WithBinding forces the named binding instead of sniffing the interface
// document.
func WithBinding(name string) Option {
	return func(o *DialOptions) { o.Binding = name }
}

// WithWatch subscribes the client to push-based interface updates: a
// watcher follows the published interface document and installs each new
// version into the client's view as it is committed, with no call made. (A
// stale call needs no watcher to avoid a document refetch: its reply
// carries the document, on every binding.)
//
// The watcher holds the Interface Server's streaming watch
// ("?watch=stream&after=N", one SSE connection per client); a broken
// connection fails over to the next endpoint at once — backing off only
// once every endpoint has failed — and reconnects with the last seen store
// epoch, caught up from the server's journal replay instead of refetching. ClientStats (StreamEvents, Reconnects,
// Replays vs Refreshes) makes that observable. Every binding whose
// Connect goes through cde.ConnectDocs can be watched; all four built-in
// bindings do.
func WithWatch() Option {
	return func(o *DialOptions) { o.Watch = true }
}

// WithDebugger installs prompt as the client debugger's hook: it is
// invoked synchronously for every recorded stale-call exception (the
// paper's Figure 9 dialog).
func WithDebugger(prompt func(Exception)) Option {
	return func(o *DialOptions) { o.Prompt = prompt }
}

// WithAuxURL supplies a binding-specific secondary document URL — for the
// CORBA binding, the stringified-IOR URL when it cannot be derived from
// the IDL URL by path convention (or vice versa).
func WithAuxURL(url string) Option {
	return func(o *DialOptions) { o.AuxURL = url }
}

// WithEndpoints supplies equivalent Interface Server base URLs — a leader
// and its read-only replicas (Config.FollowURL / sde-server -follow).
// Watch streams rotate to the next endpoint when the current one fails, so
// a replica dying mid-session is ridden out by the watcher's ordinary
// reconnect: the replicas serve the leader's restart generation, so the
// switch is journal catch-up, never a state-loss restart. The dialed URL's
// path is kept; only scheme and host rotate. Document reads do not rotate:
// they go to the leader a replica names.
func WithEndpoints(urls ...string) Option {
	return func(o *DialOptions) { o.Endpoints = append(o.Endpoints, urls...) }
}

// Dial builds a live CDE client from a published interface-document URL.
// The document is fetched once and each registered binding's Describe is
// scored against it (content type, then URL suffix, then content sniff);
// the winning binding connects. Use WithBinding to skip sniffing, and
// CallContext on the returned client to carry deadlines per call.
func Dial(ctx context.Context, url string, opts ...Option) (*Client, error) {
	var o DialOptions
	for _, opt := range opts {
		opt(&o)
	}
	return cde.Dial(ctx, url, &o)
}

// Technologies supported by the initial SDE implementation. Any registered
// binding's name converts to a Technology the same way.
const (
	TechSOAP  = core.TechSOAP
	TechCORBA = core.TechCORBA
)

// Sentinel errors re-exported from the CDE.
var (
	// ErrStaleMethod matches StaleMethodError via errors.Is.
	ErrStaleMethod = cde.ErrStaleMethod
	// ErrNoSuchStub reports a call to a method absent from the client's
	// interface view even after a refresh.
	ErrNoSuchStub = cde.ErrNoSuchStub
)

// Predeclared primitive types.
var (
	VoidType    = dyn.Void
	BooleanType = dyn.Boolean
	CharType    = dyn.Char
	Int32Type   = dyn.Int32T
	Int64Type   = dyn.Int64T
	Float32Type = dyn.Float32T
	Float64Type = dyn.Float64T
	StringType  = dyn.StringT
)

// NewClass creates an empty dynamic class.
func NewClass(name string) *Class { return dyn.NewClass(name) }

// NewManager creates and starts an SDE Manager.
func NewManager(cfg Config) (*Manager, error) { return core.NewManager(cfg) }

// Value constructors.

// Bool returns a boolean value.
func Bool(v bool) Value { return dyn.BoolValue(v) }

// Char returns a char value.
func Char(v rune) Value { return dyn.CharValue(v) }

// Int32 returns an int32 value.
func Int32(v int32) Value { return dyn.Int32Value(v) }

// Int64 returns an int64 value.
func Int64(v int64) Value { return dyn.Int64Value(v) }

// Float32 returns a float32 value.
func Float32(v float32) Value { return dyn.Float32Value(v) }

// Float64 returns a float64 value.
func Float64(v float64) Value { return dyn.Float64Value(v) }

// Str returns a string value.
func Str(v string) Value { return dyn.StringValue(v) }

// Void returns the void value.
func Void() Value { return dyn.VoidValue() }

// StructOf declares a named struct type.
func StructOf(name string, fields ...StructField) (*Type, error) {
	return dyn.StructOf(name, fields...)
}

// MustStructOf is StructOf but panics on error.
func MustStructOf(name string, fields ...StructField) *Type {
	return dyn.MustStructOf(name, fields...)
}

// SequenceOf returns a sequence type.
func SequenceOf(elem *Type) *Type { return dyn.SequenceOf(elem) }

// Struct builds a struct value.
func Struct(t *Type, fieldVals ...Value) (Value, error) {
	return dyn.StructValue(t, fieldVals...)
}

// Sequence builds a sequence value.
func Sequence(elem *Type, elems ...Value) (Value, error) {
	return dyn.SequenceValue(elem, elems...)
}
