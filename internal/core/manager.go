package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"livedev/internal/clock"
	"livedev/internal/dyn"
	"livedev/internal/h1"
	"livedev/internal/ifsvr"
	"livedev/internal/repl"
)

// Technology names an RMI technology integrated into the SDE. Since the
// binding registry replaced the hardcoded enum it is simply the registered
// binding's name; any string for which a Binding has been registered is
// valid.
type Technology string

// Names of the two technologies the initial SDE implementation ships
// (Section 2). Registered in binding.go through the same seam third-party
// bindings use.
const (
	TechSOAP  Technology = "SOAP"
	TechCORBA Technology = "CORBA"
)

// Server is the technology-independent view of one managed server class —
// the SDEServer position in the Figure 6 hierarchy. Every binding's server
// implements it by embedding a *ClassServer, which holds its InterfaceURL
// and its Endpoint.
type Server interface {
	// Class returns the managed dynamic class.
	Class() *dyn.Class
	// Technology reports which RMI technology serves the class.
	Technology() Technology
	// Publisher returns the server's DL Publisher.
	Publisher() *DLPublisher
	// CreateInstance creates the single live instance, after which calls
	// are dispatched instead of refused (Section 5.1.3). It fails if an
	// instance already exists (Section 5.4: "only a single instance of each
	// dynamic class ... can be in existence at any given time").
	CreateInstance() (*dyn.Instance, error)
	// Instance returns the live instance (nil before CreateInstance).
	Instance() *dyn.Instance
	// InterfaceURL returns the HTTP URL of the published interface
	// description (WSDL, CORBA-IDL, or the binding's own format).
	InterfaceURL() string
	// Endpoint returns the URL the server's calls go to, as bound and as
	// its interface document names it; for CORBA, the URL of its IOR.
	Endpoint() string
	// CallStats returns the server's call-outcome counters.
	CallStats() CallStats
	// Close deactivates the server and releases its resources.
	Close() error
}

// Config configures a Manager. The zero value listens on ephemeral
// loopback ports with the default publication timeout and the real clock.
type Config struct {
	// InterfaceAddr is the Interface Server listen address.
	InterfaceAddr string
	// HTTPAddr is the listen address of the shared HTTP endpoint server
	// that HTTP-based bindings (SOAP, JSON) mount call handlers on.
	HTTPAddr string
	// CORBAAddr is the listen address used for each CORBA server ORB.
	CORBAAddr string
	// Timeout is the publication stability timeout (Section 5.6).
	Timeout time.Duration
	// HistoryLen bounds the publication store's replay journal: how many
	// committed versions (across all paths) are retained for streaming-
	// watch catch-up (Replay). Zero means ifsvr.DefaultHistoryLen; negative
	// disables the journal, so every stream (re)connect falls back to a
	// full snapshot event.
	HistoryLen int
	// DataDir makes the publication store durable: every commit batch is
	// appended to a write-ahead log under this directory and the full
	// state (documents, epoch counter, replay journal, restart
	// generation) is compacted into periodic snapshots. A manager
	// restarted over the same directory resumes at an epoch past its
	// pre-restart epoch, so reconnecting watchers ride journal replay
	// instead of stampeding the snapshot path. Empty (the default) keeps
	// the store in-memory.
	DataDir string
	// Sync selects when the durable store fsyncs its WAL (ignored without
	// DataDir). The zero value SyncNone keeps buffered writes;
	// SyncGroupCommit blocks each publication until an fsync, shared with
	// concurrent commits, covers its record.
	Sync SyncPolicy
	// FollowURL turns the manager into a read-only replica: instead of
	// hosting live server classes it watches the all-paths stream of the
	// leader Interface Server at this base URL and applies every committed
	// publication into its own store, which the local Interface Server
	// serves under the leader's restart generation. Register fails in this
	// mode, and publications arriving over HTTP are answered with 421
	// Misdirected Request naming the leader. DataDir still applies: a
	// durable follower resumes from its persisted epoch after a restart.
	FollowURL string
	// MaxWatcherLag bounds how many committed-but-undelivered events a
	// streaming watcher of the Interface Server may have pending before
	// its stream is evicted with a terminal event (the client reconnects
	// through ordinary replay). Zero disables the budget: a laggard is
	// then bounded only by the journal capacity (snapshot reset) and the
	// write deadline.
	MaxWatcherLag int
	// WatchWriteTimeout bounds each write on a held watch stream (events,
	// heartbeats): a peer that cannot absorb a write within it is evicted.
	// Zero means the ifsvr default; negative disables the deadline.
	WatchWriteTimeout time.Duration
	// Clock drives publication timers; nil means the real clock.
	Clock clock.Clock
	// ActivePublishingOnly disables the Section 5.7 reactive publication
	// on stale calls, leaving only the timer-driven path — the Figure 7
	// baseline the paper argues against. It exists for the ablation checks
	// (TestFigure7Matrix, the conformance suite's ActivePublishingOnly
	// rows); production use should leave it false.
	ActivePublishingOnly bool
}

func (c Config) withDefaults() Config {
	if c.InterfaceAddr == "" {
		c.InterfaceAddr = "127.0.0.1:0"
	}
	if c.HTTPAddr == "" {
		c.HTTPAddr = "127.0.0.1:0"
	}
	if c.CORBAAddr == "" {
		c.CORBAAddr = "127.0.0.1:0"
	}
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
	return c
}

// Manager is the SDE Manager: it "oversees the subsystem initialization and
// acts as the central point of communication between the other components"
// (Section 5.1). One Manager owns the shared Interface Server, the HTTP
// server hosting HTTP-based call handlers, and the set of managed server
// classes.
type Manager struct {
	cfg Config

	store    *ifsvr.Store
	iface    *ifsvr.Server
	follower *repl.Follower // follower mode (Config.FollowURL)

	httpMux  *dynamicMux
	httpSrv  *h1.Server
	httpBase string

	mu       sync.Mutex
	servers  map[string]Server
	draining bool
	closed   bool
}

// NewManager creates and starts a manager: the Interface Server and the
// HTTP endpoint server begin listening immediately.
func NewManager(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	storeCfg := ifsvr.StoreConfig{
		HistoryLen: cfg.HistoryLen,
		Dir:        cfg.DataDir,
		Sync:       cfg.Sync,
	}
	m := &Manager{
		cfg:     cfg,
		httpMux: newDynamicMux(),
		servers: make(map[string]Server),
	}
	if cfg.FollowURL != "" {
		// Follower mode: the store is fed by the leader's all-paths
		// stream, not by local publishers, and the Interface Server serves it
		// read-only under the leader's generation.
		f, err := repl.OpenFollower(repl.FollowerConfig{Leader: cfg.FollowURL, Store: storeCfg})
		if err != nil {
			return nil, fmt.Errorf("core: opening follower of %s: %w", cfg.FollowURL, err)
		}
		f.Iface().MaxWatcherLag = cfg.MaxWatcherLag
		f.Iface().StreamWriteTimeout = cfg.WatchWriteTimeout
		if _, err := f.Serve(cfg.InterfaceAddr); err != nil {
			f.Close()
			return nil, fmt.Errorf("core: starting interface server: %w", err)
		}
		m.follower = f
		m.store = f.Store()
		m.iface = f.Iface()
	} else {
		store, err := ifsvr.OpenStore(storeCfg)
		if err != nil {
			return nil, fmt.Errorf("core: opening publication store: %w", err)
		}
		m.store = store
		// The Interface Server is a read view over the publication store:
		// every binding publishes through the store, the HTTP view serves
		// and watches it (Section 5.1 plus the watch protocol).
		m.iface = ifsvr.NewView(m.store)
		m.iface.MaxWatcherLag = cfg.MaxWatcherLag
		m.iface.StreamWriteTimeout = cfg.WatchWriteTimeout
		if _, err := m.iface.Start(cfg.InterfaceAddr); err != nil {
			m.store.Close()
			return nil, fmt.Errorf("core: starting interface server: %w", err)
		}
	}
	ln, err := net.Listen("tcp", cfg.HTTPAddr)
	if err != nil {
		_ = m.iface.Close()
		m.store.Close()
		return nil, fmt.Errorf("core: starting HTTP endpoint server: %w", err)
	}
	m.httpBase = "http://" + ln.Addr().String()
	// The ops plane rides the shared endpoint mux: scrapers hit the same
	// listener the bindings serve on, so one address covers both.
	m.httpMux.handle("/metrics", &muxEntry{h: http.HandlerFunc(m.serveMetrics)})
	m.httpSrv = h1.Serve(ln, m.httpMux)
	return m, nil
}

// InterfaceServer returns the shared Interface Server (the HTTP read view
// over the publication store).
func (m *Manager) InterfaceServer() *ifsvr.Server { return m.iface }

// Follower returns the replication follower when the manager runs in
// follower mode (Config.FollowURL), nil on a leader.
func (m *Manager) Follower() *repl.Follower { return m.follower }

// Store returns the manager's publication store — the versioned document
// store with tap and watcher fan-out that every binding publishes through.
func (m *Manager) Store() *ifsvr.Store { return m.store }

// InterfaceBaseURL returns the Interface Server base URL.
func (m *Manager) InterfaceBaseURL() string { return m.iface.BaseURL() }

// HTTPBaseURL returns the base URL of the shared HTTP endpoint server that
// ClassServer.MountCalls serves calls on.
func (m *Manager) HTTPBaseURL() string { return m.httpBase }

// GenerateFunc renders an interface descriptor into one binding's document
// text (WSDL, CORBA-IDL, JSON, ...).
type GenerateFunc func(desc dyn.InterfaceDescriptor) (string, error)

// Register deploys class as a live server of the named technology — what
// happens when a JPie user extends SOAPServer or CORBAServer (Section 4):
// the binding's backend components are created and a basic interface
// description is published immediately. The technology is resolved against
// the process-wide binding registry, so technologies added with
// RegisterBinding deploy exactly like the built-in pair.
func (m *Manager) Register(class *dyn.Class, tech Technology) (Server, error) {
	if m.follower != nil {
		return nil, fmt.Errorf("core: manager is a read-only replica of %s; deploy classes on the leader", m.cfg.FollowURL)
	}
	b, ok := LookupBinding(string(tech))
	if !ok {
		return nil, fmt.Errorf("core: no binding registered for technology %q (registered: %v)", tech, BindingNames())
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, errors.New("core: manager closed")
	}
	if m.draining {
		m.mu.Unlock()
		return nil, errors.New("core: manager is draining; no new registrations")
	}
	if _, dup := m.servers[class.Name()]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("core: class %s is already managed", class.Name())
	}
	// Reserve the slot to serialize concurrent Register calls.
	m.servers[class.Name()] = nil
	m.mu.Unlock()

	srv, err := b.Serve(m, class)
	if err == nil {
		// Registration "immediately publishes a basic definition" (Section
		// 4) — here rather than in each binding, and after Serve, so the
		// endpoint the document advertises is already up.
		srv.Publisher().PublishNow()
		srv.Publisher().WaitIdle()
	}

	m.mu.Lock()
	if err != nil {
		delete(m.servers, class.Name())
	} else {
		m.servers[class.Name()] = srv
	}
	m.mu.Unlock()
	return srv, err
}

// Server returns the managed server for a class name.
func (m *Manager) Server(className string) (Server, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.servers[className]
	return s, ok && s != nil
}

// Servers returns all managed servers.
func (m *Manager) Servers() []Server {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Server, 0, len(m.servers))
	for _, s := range m.servers {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}

// unregister drops a server from the registry (ClassServer.Close). A nil
// slot is the reservation of a Register still in flight and is that
// Register's to release: a Serve that fails and closes what it built must
// not open the name to a second Register before the first has returned.
func (m *Manager) unregister(className string) {
	m.mu.Lock()
	if m.servers[className] != nil {
		delete(m.servers, className)
	}
	m.mu.Unlock()
}

// The staged lifecycle. NewManager is the Start stage (both listeners are
// live when it returns); Probe answers readiness; Drain stops taking new
// work while letting in-flight work finish; Stop tears down. Close is
// kept as Drain-then-Stop under a short default deadline.

// DefaultDrainTimeout bounds the implicit drain inside Close (and the
// sde-server signal path when no explicit deadline is configured): long
// enough for in-flight calls to finish, short enough that an operator's
// ^C never feels stuck.
const DefaultDrainTimeout = 2 * time.Second

// DefaultReadyLagBound is the Probe readiness bound on a follower's
// replication lag, in epochs. It matches the default journal: a follower
// further behind than the leader's journal would be snapshot-reset
// anyway, so it has no business taking traffic.
const DefaultReadyLagBound = uint64(ifsvr.DefaultHistoryLen)

// ErrDraining reports an operation refused because the manager is
// draining.
var ErrDraining = errors.New("core: manager draining")

// Probe answers the readiness question: the listeners are up, the store
// recovered its state, and (in follower mode) replication is caught up
// within DefaultReadyLagBound. A nil return means the manager can take
// traffic; the error otherwise says what is not ready — the load
// balancer's health-check contract, also served over HTTP as
// /metrics' lifecycle gauge.
func (m *Manager) Probe() error {
	m.mu.Lock()
	closed, draining := m.closed, m.draining
	m.mu.Unlock()
	if closed {
		return errors.New("core: manager closed")
	}
	if draining {
		return ErrDraining
	}
	if m.iface.BaseURL() == "" {
		return errors.New("core: interface server not listening")
	}
	if m.httpBase == "" {
		return errors.New("core: HTTP endpoint server not listening")
	}
	if m.store.Generation() == 0 {
		return errors.New("core: publication store not recovered")
	}
	if m.follower != nil {
		if lag := m.follower.Lag(); lag > DefaultReadyLagBound {
			return fmt.Errorf("core: follower lags the leader by %d epochs (readiness bound %d)", lag, DefaultReadyLagBound)
		}
	}
	return nil
}

// Draining reports whether Drain has begun.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Drain takes the manager out of service without dropping work:
//
//  1. new registrations are refused (Register returns an error) and
//     Probe reports not-ready, so orchestrators stop routing here;
//  2. the HTTP endpoint server stops accepting connections, closes its
//     idle keep-alive connections and waits — bounded by ctx — for
//     in-flight calls to complete, each connection closing after its
//     reply (h1.Server.Shutdown, not Close: nothing in flight is dropped,
//     and a connection accepted but yet to send its first call counts as
//     in flight);
//  3. the Interface Server drains: held watch streams, followers' included,
//     end with a terminal "draining" frame, so watchers reconnect to
//     another replica instead of timing out.
//
// Every publication committed through the WAL before it returned, so the
// drain has nothing left to flush.
//
// Drain is idempotent, reversible only by Stop (there is no undrain), and
// leaves every serving structure intact — a drained manager still answers
// requests that were in flight when it began. Errors from the stages are
// joined, not discarded.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil // nothing left to drain
	}
	m.draining = true
	m.mu.Unlock()

	var errs []error
	// In-flight calls finish; new conns are refused from here on.
	if err := m.httpSrv.Shutdown(ctx); err != nil {
		errs = append(errs, fmt.Errorf("core: draining HTTP endpoint server: %w", err))
	}
	if err := m.iface.Shutdown(ctx); err != nil {
		errs = append(errs, fmt.Errorf("core: draining interface server: %w", err))
	}
	return errors.Join(errs...)
}

// Stop tears the manager down: every managed server, the HTTP endpoint
// server, the Interface Server, and the store (or the replication
// follower, which owns both in that mode). Unlike the pre-lifecycle
// Close it joins per-server Close errors instead of discarding them.
// Idempotent. Callers wanting a graceful exit call Drain first (or just
// Close, which does both).
func (m *Manager) Stop() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	servers := make([]Server, 0, len(m.servers))
	for _, s := range m.servers {
		if s != nil {
			servers = append(servers, s)
		}
	}
	m.mu.Unlock()

	var errs []error
	for _, s := range servers {
		if err := s.Close(); err != nil {
			errs = append(errs, fmt.Errorf("core: closing %s server %q: %w", s.Technology(), s.Class().Name(), err))
		}
	}
	if err := m.httpSrv.Close(); err != nil {
		errs = append(errs, fmt.Errorf("core: closing HTTP endpoint server: %w", err))
	}
	if m.follower != nil {
		// The follower owns the iface and store: stop following, persist
		// the replication cursor, then close both.
		m.follower.Close()
		return errors.Join(errs...)
	}
	if err := m.iface.Close(); err != nil {
		errs = append(errs, fmt.Errorf("core: closing interface server: %w", err))
	}
	// Closing the store wakes parked watch polls so they drain promptly.
	m.store.Close()
	return errors.Join(errs...)
}

// Close shuts the manager down gracefully: Drain under
// DefaultDrainTimeout, then Stop. In-flight calls get the drain window to
// complete; whatever outlasts it is cut off by Stop. Errors from both
// stages are joined.
func (m *Manager) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), DefaultDrainTimeout)
	defer cancel()
	derr := m.Drain(ctx)
	return errors.Join(derr, m.Stop())
}

// dynamicMux routes endpoint paths to handlers and supports removal
// (http.ServeMux cannot unregister, and SDE servers come and go live).
// Each mount carries request/error counters — the per-binding call
// counts the /metrics endpoint exposes.
type dynamicMux struct {
	mu       sync.RWMutex
	handlers map[string]*muxEntry
}

// muxEntry is one mount — a class's calls in its binding's codec, or a
// plain handler (/metrics) — plus its counters. Counters survive as long
// as the mount; remounting a path (a class re-registered) starts fresh.
type muxEntry struct {
	calls    *ClassServer
	codec    HTTPCodec
	h        http.Handler // when calls is nil
	requests atomic.Uint64
	errors   atomic.Uint64 // replies with a 5xx status
}

// muxStat is one mount's counter snapshot.
type muxStat struct {
	path              string
	requests, errors_ uint64
}

func newDynamicMux() *dynamicMux {
	return &dynamicMux{handlers: make(map[string]*muxEntry)}
}

func (d *dynamicMux) handle(path string, e *muxEntry) {
	d.mu.Lock()
	d.handlers[path] = e
	d.mu.Unlock()
}

func (d *dynamicMux) removeHandler(path string) {
	d.mu.Lock()
	delete(d.handlers, path)
	d.mu.Unlock()
}

// stats snapshots every mount's counters (unordered).
func (d *dynamicMux) stats() []muxStat {
	d.mu.RLock()
	out := make([]muxStat, 0, len(d.handlers))
	for p, e := range d.handlers {
		out = append(out, muxStat{path: p, requests: e.requests.Load(), errors_: e.errors.Load()})
	}
	d.mu.RUnlock()
	return out
}

// ServeHTTP implements http.Handler. A call mount counts its own errors;
// the plain handler, /metrics, never answers 5xx.
func (d *dynamicMux) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	d.mu.RLock()
	e, ok := d.handlers[r.URL.Path]
	d.mu.RUnlock()
	if !ok {
		http.NotFound(w, r)
		return
	}
	e.requests.Add(1)
	if e.calls != nil {
		e.serveCall(w, r)
	} else {
		e.h.ServeHTTP(w, r)
	}
}
