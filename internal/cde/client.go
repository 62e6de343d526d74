// Package cde implements the paper's Client Development Environment
// (Section 2.3 and [1]): the client half of live, simultaneous
// client-server development. A Client fetches the published interface
// description (WSDL, CORBA-IDL + IOR, or any registered binding's document)
// from the SDE's Interface Server, builds a live stub set from it, and
// invokes server methods by name with dyn values. When the server replies
// "Non Existent Method" — which the Section 5.7 protocol guarantees happens
// only after the published interface is current — the client updates its
// view of the server interface *before* delivering the exception to the
// calling code, so the developer always sees the signature change that
// caused the failure (Section 6, Figure 9). The view is updated from the
// reply, which carries the document the Interface Server would serve at
// that instant; only a reply without one is followed by a fetch. The JPie
// debugger analogue records the failed call and supports 'try again'.
package cde

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"livedev/internal/dyn"
	"livedev/internal/ifsvr"
)

// ErrStaleMethod is the sentinel wrapped by *StaleMethodError.
var ErrStaleMethod = errors.New("cde: method is stale on the server")

// ErrNoSuchStub reports a call to a method absent from the client's current
// view of the server interface (even after a refresh).
var ErrNoSuchStub = errors.New("cde: no stub for method")

// StaleMethodError is delivered to the caller after a "Non Existent Method"
// reply. By the time the caller sees it, the client's interface view has
// already been reactively updated, and RefreshedDescriptorVersion records
// the interface version that view came from — the quantity the Section 6
// recency guarantee bounds from below.
type StaleMethodError struct {
	Method string
	// RefreshedDescriptorVersion is the descriptor version of the client's
	// post-refresh interface view.
	RefreshedDescriptorVersion uint64
	// Cause is the transport-level error (SOAP fault / CORBA exception).
	Cause error
}

// Error implements error.
func (e *StaleMethodError) Error() string {
	return fmt.Sprintf("cde: method %s is not part of the current server interface (client view updated to descriptor version %d): %v",
		e.Method, e.RefreshedDescriptorVersion, e.Cause)
}

// Unwrap makes errors.Is(err, ErrStaleMethod) work and preserves the cause.
func (e *StaleMethodError) Unwrap() []error { return []error{ErrStaleMethod, e.Cause} }

// DocVersions carries the version counters of a published document.
type DocVersions struct {
	// Doc is the Interface Server publish count.
	Doc uint64
	// Descriptor is the interface-descriptor version the document was
	// generated from.
	Descriptor uint64
	// Epoch is the publication store's commit epoch for the document — the
	// cursor a streaming watch reconnects with.
	Epoch uint64
	// Generation is the serving store's restart generation (0 against
	// servers predating it). A generation change with an epoch regression
	// is the restart signal: the new server incarnation did not recover
	// the old one's state, so cursors must reset instead of parking on
	// epochs that will not come back.
	Generation uint64
}

// ClientStats counts client activity.
type ClientStats struct {
	// Calls counts successful remote calls.
	Calls uint64
	// StaleFaults counts "Non Existent Method" replies (each triggers a
	// reactive interface refresh).
	StaleFaults uint64
	// Refreshes counts interface *fetches* (initial, reactive, and manual
	// HTTP round-trips). Watch-delivered updates are counted separately; a
	// document a stale reply carried is not a fetch and counts in neither.
	Refreshes uint64
	// WatchUpdates counts interface views installed from watch pushes —
	// updates that cost no per-call document fetch.
	WatchUpdates uint64
	// StreamEvents counts events received over the streaming watch
	// transport (live, replayed, and snapshot alike).
	StreamEvents uint64
	// Reconnects counts streaming-watch reconnects after a broken
	// connection.
	Reconnects uint64
	// Evictions counts streams the server terminated for backpressure
	// (this client lagged past the server's watcher budget). Each is also
	// a Reconnect — the recovery is the ordinary reconnect-with-replay.
	Evictions uint64
	// Replays counts interface views installed from journal replay during
	// a streaming-watch (re)connect — catch-up that cost no document fetch
	// (Refreshes does not move).
	Replays uint64
	// Restarts counts server restarts the watcher detected and recovered
	// from: a generation change whose epoch regressed below the client's
	// cursor (the new incarnation did not recover the old state), forcing
	// a view reset. A restarted server that did recover its state (same
	// data dir) is NOT a restart here — the watcher rides journal replay
	// and only Reconnects moves.
	Restarts uint64
	// Backoffs counts the backoff waits of the client's document source
	// (DocSource.Backoffs): a read waits from its first failure, a stream
	// reconnect once the whole endpoint rotation has failed, and
	// consecutive failures lengthen the wait exponentially (capped,
	// jittered, reset on success), so each is a dial that hot-spin retry
	// would have made many times over.
	Backoffs uint64
	// Drains counts streams the server ended with a terminal "draining"
	// event (graceful shutdown). Each is followed by an immediate
	// reconnect to the next replica — no backoff, the server asked us to
	// move, we did not fail.
	Drains uint64
}

// errClosed reports a call or a refresh on a closed client.
var errClosed = errors.New("cde: client is closed")

// view is one interface view: the compiled descriptor, the versions of the
// document it was compiled from, and the Caller for the endpoint that
// document advertises. An installed view is never modified; a newer one
// replaces it whole.
type view struct {
	iface    dyn.InterfaceDescriptor
	versions DocVersions
	caller   Caller
}

// Client is a live CDE client bound to one server: the source of its
// published interface document, the binding that compiles it, and the one
// view installed from it.
type Client struct {
	docs *DocSource
	b    DocBinding

	// callTimeout, when non-zero, bounds each call whose context carries no
	// deadline of its own (the Dial WithTimeout option).
	callTimeout time.Duration

	mu     sync.RWMutex
	view   *view
	stats  ClientStats
	closed bool
	// viewHooks run (outside the lock) after every installed view — the
	// hooks bridges use for event-driven re-export. Keyed so several
	// listeners (e.g. two fronts over one client) coexist.
	viewHooks map[uint64]func()
	nextHook  uint64

	// watching is set when the push watcher is running.
	watching    bool
	watchCancel context.CancelFunc
	watchDone   chan struct{}

	debugger *Debugger

	refreshMu sync.Mutex // serializes concurrent reactive refreshes
}

// connect builds the client over docs and b and performs the initial
// interface fetch — step (1) of Figures 1 and 2 — then starts the push
// watcher when opts (which may be nil) ask for it.
func connect(ctx context.Context, docs *DocSource, b DocBinding, opts *DialOptions) (*Client, error) {
	c := &Client{docs: docs, b: b, view: &view{}}
	c.debugger = &Debugger{client: c}
	if opts != nil {
		c.callTimeout = opts.Timeout
		if opts.Prompt != nil {
			c.debugger.SetPrompt(opts.Prompt)
		}
	}
	if err := c.RefreshContext(ctx); err != nil {
		// The binding may already hold resources (CORBA's bootstrap takes a
		// pooled IIOP connection ref); a failed dial must release them.
		_ = c.Close()
		return nil, err
	}
	if opts != nil && opts.Watch {
		c.startWatch()
	}
	return c, nil
}

// startWatch launches the push watcher: a goroutine holding one streaming
// watch on the published interface document and installing each new
// version into the client's view — the push-invalidated interface cache.
func (c *Client) startWatch() {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	c.mu.Lock()
	c.watching, c.watchCancel, c.watchDone = true, cancel, done
	c.mu.Unlock()
	go func() {
		defer close(done)
		c.runWatch(ctx)
	}()
}

// runWatch holds the streaming watch until ctx ends, reconnecting with the
// last seen epoch after a break so catch-up rides journal replay instead
// of a refetch. The document source paces the reconnects: a broken stream
// (server restart, network blip, a backpressure eviction because this
// client lagged, or an endpoint that does not stream at all) fails over to
// the next replica endpoint at once and waits out the source's backoff only
// once the whole rotation has failed; a drained one reconnects without a
// wait — the server asked us to move, we did not fail.
func (c *Client) runWatch(ctx context.Context) {
	for {
		err := c.docs.Stream(ctx, c.Versions().Epoch, func(ev ifsvr.StreamEvent) {
			installed, err := c.install(ev.Doc, fromWatch)
			if err != nil {
				return // a malformed intermediate version; the next event supersedes it
			}
			c.mu.Lock()
			c.stats.StreamEvents++
			if ev.Replayed && installed {
				c.stats.Replays++
			}
			c.mu.Unlock()
		})
		if ctx.Err() != nil {
			return
		}
		c.mu.Lock()
		switch {
		case errors.Is(err, ifsvr.ErrStreamDraining):
			c.stats.Drains++
		case errors.Is(err, ifsvr.ErrStreamEvicted):
			c.stats.Evictions++
		}
		c.stats.Reconnects++
		c.mu.Unlock()
	}
}

// restarted reports whether a view of next belongs to a new server
// incarnation that did not recover the one cur came from — a restart-
// generation change whose epoch OR document version regressed below cur's.
// That combination forces the view past the no-backwards rule. The
// document-version check matters when the new incarnation's store-wide
// epoch has already overtaken the client's (path-scoped) epoch cursor:
// per-incarnation document versions are monotone per path, so a regressed
// version under a new generation is still proof of state loss. A
// generation change with both cursors intact is a durable server restart
// the watcher rides via journal replay, and a snapshot on an unchanged
// generation is merely a journal eviction — neither forces anything.
func restarted(cur, next DocVersions) bool {
	if next.Generation == 0 || cur.Generation == 0 || next.Generation == cur.Generation {
		return false
	}
	return next.Epoch < cur.Epoch || next.Doc < cur.Doc
}

// newer is installView's rule short of a restart: a view of next replaces
// one of cur unless it is older, or versioned with cur's (generation,
// version).
func newer(cur, next DocVersions) bool {
	same := next.Doc != 0 && next.Doc == cur.Doc && next.Generation == cur.Generation
	return next.Doc >= cur.Doc && !same
}

// Watching reports whether the push watcher is running.
func (c *Client) Watching() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.watching
}

// AddViewListener registers a hook run synchronously (outside the client's
// lock) after every installed interface view — watch pushes, reactive
// refreshes, and manual refreshes alike — and returns its remove function.
// Bridges use it to keep their re-exported classes in step with the
// backend; multiple listeners (two fronts over one client) coexist.
func (c *Client) AddViewListener(fn func()) (remove func()) {
	c.mu.Lock()
	if c.viewHooks == nil {
		c.viewHooks = make(map[uint64]func())
	}
	id := c.nextHook
	c.nextHook++
	c.viewHooks[id] = fn
	c.mu.Unlock()
	return func() {
		c.mu.Lock()
		delete(c.viewHooks, id)
		c.mu.Unlock()
	}
}

// viewSource says where an installed view came from.
type viewSource uint8

const (
	fromFetch viewSource = iota // a document GET
	fromWatch                   // a watch-stream push
	fromReply                   // the document a stale reply carried
)

// install compiles doc into a view and installs it (installView), reporting
// whether it was installed. A document that does not compile installs
// nothing and is returned as the error.
func (c *Client) install(doc ifsvr.Document, src viewSource) (bool, error) {
	desc, caller, err := c.b.Compile(doc)
	if err != nil {
		return false, err
	}
	vers := DocVersions{Doc: doc.Version, Descriptor: doc.DescriptorVersion, Epoch: doc.Epoch, Generation: doc.Generation}
	return c.installView(&view{iface: desc, versions: vers, caller: caller}, src), nil
}

// installView installs a fetched, pushed or carried view. The view never
// moves backwards, and never re-installs itself: a document older than the
// current view, or a versioned one with the current view's (generation,
// version), is dropped whole — its Caller does not retarget calls either
// (a fetch is still counted) — unless it restarted the server, where the
// regressed view is the new incarnation's truth. It reports whether the
// view was installed.
func (c *Client) installView(v *view, src viewSource) bool {
	c.mu.Lock()
	if src == fromFetch {
		// A fetch happened whether or not its result wins the race below.
		c.stats.Refreshes++
	}
	switch {
	case restarted(c.view.versions, v.versions):
		c.stats.Restarts++
	case !newer(c.view.versions, v.versions):
		c.mu.Unlock()
		return false
	}
	if src == fromWatch {
		// Counted only when the pushed view is actually installed.
		c.stats.WatchUpdates++
	}
	c.view = v
	hooks := make([]func(), 0, len(c.viewHooks))
	for _, h := range c.viewHooks {
		hooks = append(hooks, h)
	}
	c.mu.Unlock()
	for _, h := range hooks {
		h()
	}
	return true
}

// Technology reports the binding's technology.
func (c *Client) Technology() string { return c.b.Technology }

// Interface returns the client's current view of the server interface.
func (c *Client) Interface() dyn.InterfaceDescriptor {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.view.iface
}

// Versions returns the versions of the interface document the current view
// came from.
func (c *Client) Versions() DocVersions {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.view.versions
}

// Stats returns a snapshot of the client counters.
func (c *Client) Stats() ClientStats {
	c.mu.RLock()
	st := c.stats
	c.mu.RUnlock()
	st.Backoffs = c.docs.Backoffs()
	return st
}

// Debugger returns the client's debugger.
func (c *Client) Debugger() *Debugger { return c.debugger }

// Refresh is RefreshContext with a background context.
func (c *Client) Refresh() error { return c.RefreshContext(context.Background()) }

// RefreshContext re-fetches the published interface description and
// rebuilds the stub set — the "regular update" edge of Figure 8. The view
// never moves backwards: a fetch racing a newer fetch is discarded by
// comparing document versions.
func (c *Client) RefreshContext(ctx context.Context) error {
	c.mu.RLock()
	closed := c.closed
	c.mu.RUnlock()
	if closed {
		return errClosed
	}
	if c.b.Bootstrap != nil {
		if err := c.b.Bootstrap(ctx); err != nil {
			return err
		}
	}
	doc, err := c.docs.Fetch(ctx)
	if err != nil {
		return err
	}
	_, err = c.install(doc, fromFetch)
	return err
}

// reactiveRefresh brings the client's view up to date after the "Non
// Existent Method" reply stale, watcher or not. The reply carries the
// document the server's forced publication committed (Section 5.7), which
// is exactly what the Interface Server would serve at that instant, and it
// is installed like a fetched one. A reply without one — a binding that
// reads no document off its replies, the ActivePublishingOnly ablation, a
// document that is unversioned, over ifsvr.MaxCarriedDoc or does not
// compile, a server predating carried documents — falls back to fetching
// the document, the classic Section 6 path.
func (c *Client) reactiveRefresh(ctx context.Context, stale error) error {
	if c.b.StaleDoc != nil {
		doc := c.b.StaleDoc(stale)
		if doc != nil && doc.Version != 0 && len(doc.Content) <= ifsvr.MaxCarriedDoc {
			if _, err := c.install(*doc, fromReply); err == nil {
				return nil
			}
		}
	}
	return c.RefreshContext(ctx)
}

// CallContext invokes a server method by name. The signature is resolved
// against the client's current interface view and the call goes to the
// endpoint that same view names; arguments are type-checked against it;
// and the reactive-update protocol of Section 6 runs on "Non Existent
// Method" replies: refresh first, then deliver a *StaleMethodError, which
// is also recorded with the debugger.
//
// Cancelling ctx (or exceeding its deadline, or the client's configured
// default timeout when ctx carries no deadline) aborts the in-flight
// exchange; the returned error wraps ctx.Err(), so
// errors.Is(err, context.Canceled) and errors.Is(err,
// context.DeadlineExceeded) hold.
func (c *Client) CallContext(ctx context.Context, method string, args ...dyn.Value) (dyn.Value, error) {
	if c.callTimeout > 0 {
		if _, hasDeadline := ctx.Deadline(); !hasDeadline {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, c.callTimeout)
			defer cancel()
		}
	}

	c.mu.RLock()
	v, closed := c.view, c.closed
	c.mu.RUnlock()
	if closed {
		return dyn.Value{}, errClosed
	}
	sig, ok := v.iface.Lookup(method)
	if !ok {
		// The local view may predate a server-side addition: refresh once.
		if err := c.RefreshContext(ctx); err != nil {
			return dyn.Value{}, err
		}
		c.mu.RLock()
		v = c.view
		c.mu.RUnlock()
		if sig, ok = v.iface.Lookup(method); !ok {
			return dyn.Value{}, fmt.Errorf("%w: %s", ErrNoSuchStub, method)
		}
	}

	result, err := v.caller.Call(ctx, sig, args)
	if err == nil {
		c.mu.Lock()
		c.stats.Calls++
		c.mu.Unlock()
		return result, nil
	}
	if !c.b.IsStale(err) {
		return dyn.Value{}, err
	}

	// Section 6: "when a 'Non existent Method' exception is received by
	// the client backend, the client view of the server interface is
	// updated to the currently published one. Then, the exception is sent
	// to the dynamic class that made the original RMI call." The currently
	// published one rides on the reply itself.
	c.refreshMu.Lock()
	refreshErr := c.reactiveRefresh(ctx, err)
	c.refreshMu.Unlock()

	c.mu.Lock()
	c.stats.StaleFaults++
	ver := c.view.versions.Descriptor
	c.mu.Unlock()

	staleErr := &StaleMethodError{Method: method, RefreshedDescriptorVersion: ver, Cause: err}
	if refreshErr != nil {
		staleErr.Cause = errors.Join(err, fmt.Errorf("reactive refresh failed: %w", refreshErr))
	}
	c.debugger.record(method, args, staleErr)
	return dyn.Value{}, staleErr
}

// AutoRefresh starts periodically refreshing the interface view (the
// "regular update" path) and returns a stop function that blocks until the
// refresher goroutine exits.
func (c *Client) AutoRefresh(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				_ = c.Refresh()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-finished
	}
}

// Close stops the watcher (if any) and releases what the binding holds.
// Calls and refreshes on a closed client fail.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	cancel, done := c.watchCancel, c.watchDone
	c.watchCancel, c.watchDone = nil, nil
	c.watching = false
	c.mu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
	if c.b.Close == nil {
		return nil
	}
	return c.b.Close()
}

// Exception is a failed call recorded by the debugger (Figure 9).
type Exception struct {
	Method string
	Args   []dyn.Value
	Err    error
	// SignatureNow is the method's signature in the client's post-refresh
	// interface view, if the method still exists — what the debugger shows
	// the developer so "the server interface change is clearly visible".
	SignatureNow *dyn.MethodSig
}

// Debugger is the JPie-debugger analogue: it records stale-call exceptions,
// invokes an optional prompt hook (the paper's dialog of Figure 9), and
// supports the 'try again' feature: re-execute the call, which picks up the
// refreshed signature and resumes normal execution if the developer (or the
// server developer) resolved the mismatch.
type Debugger struct {
	client *Client

	mu     sync.Mutex
	last   *Exception
	prompt func(Exception)
}

// SetPrompt installs a hook called synchronously whenever an exception is
// recorded.
func (d *Debugger) SetPrompt(f func(Exception)) {
	d.mu.Lock()
	d.prompt = f
	d.mu.Unlock()
}

// Last returns the most recently recorded exception.
func (d *Debugger) Last() (Exception, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.last == nil {
		return Exception{}, false
	}
	return *d.last, true
}

func (d *Debugger) record(method string, args []dyn.Value, err error) {
	ex := Exception{Method: method, Args: args, Err: err}
	if sig, ok := d.client.Interface().Lookup(method); ok {
		ex.SignatureNow = &sig
	}
	d.mu.Lock()
	d.last = &ex
	prompt := d.prompt
	d.mu.Unlock()
	if prompt != nil {
		prompt(ex)
	}
}

// TryAgain is TryAgainContext with a background context.
func (d *Debugger) TryAgain() (dyn.Value, error) {
	return d.TryAgainContext(context.Background())
}

// TryAgainContext re-executes the last failed call with its original
// arguments. If the server developer restored a compatible signature,
// execution resumes normally (Section 6's 'try again' flow).
func (d *Debugger) TryAgainContext(ctx context.Context) (dyn.Value, error) {
	d.mu.Lock()
	ex := d.last
	d.mu.Unlock()
	if ex == nil {
		return dyn.Value{}, errors.New("cde: no failed call to retry")
	}
	return d.client.CallContext(ctx, ex.Method, ex.Args...)
}
