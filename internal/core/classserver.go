package core

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"livedev/internal/dyn"
	"livedev/internal/h1"
	"livedev/internal/ifsvr"
)

// Outcome classifies how one remote call ended. Each binding maps it to
// its own wire vocabulary (SOAP fault, CORBA exception, JSON error, h2b
// error header); the classification itself is made once, in
// ClassServer.Call.
type Outcome uint8

const (
	// OutcomeOK: the method ran and returned Reply.Value.
	OutcomeOK Outcome = iota
	// OutcomeAppFault: the method body returned Reply.Err.
	OutcomeAppFault
	// OutcomeStale: the call does not fit the live interface. The published
	// interface document is current by the time this outcome is returned
	// (Section 5.7), so the reply may say "non-existent method".
	OutcomeStale
	// OutcomeMalformed: the request could not be read (Reply.Err says why).
	OutcomeMalformed
	// OutcomeInactive: the call arrived before CreateInstance.
	OutcomeInactive
	// OutcomeAbandoned: the caller's context ended before dispatch. Nothing
	// ran, nobody is waiting for a reply, and nothing is counted.
	OutcomeAbandoned

	countedOutcomes = int(OutcomeAbandoned)
)

// String names the outcome as the livedev_calls_total metric labels it.
func (o Outcome) String() string {
	return [...]string{"ok", "app_fault", "stale", "malformed", "inactive", "abandoned"}[o]
}

// Reply is the typed result of ClassServer.Call.
type Reply struct {
	Outcome Outcome
	// Method is the name the request asked for, as far as it could be read.
	Method string
	// Value is the method's result (OutcomeOK only).
	Value dyn.Value
	// Err is the body's error (OutcomeAppFault), the reason the request was
	// unreadable (OutcomeMalformed) or the context's error (OutcomeAbandoned).
	Err error
	// Doc is the interface document the forced publication committed
	// (OutcomeStale only), for the binding to put on its stale reply so the
	// client need not fetch it. It is nil under the ActivePublishingOnly
	// ablation, when the committed document is older than the interface that
	// refused the call, and when it is over ifsvr.MaxCarriedDoc.
	Doc *ifsvr.Document
}

// ErrMisfit is what a Resolve returns for a well-formed request that does
// not fit the live interface: unknown method, wrong argument count, an
// argument that does not decode as its parameter type. Section 5.6 treats
// all of them alike — the client's stub is stale.
var ErrMisfit = errors.New("core: call does not fit the current server interface")

// Resolve is a binding's whole part in serving a call: read the request
// against live — the interface the class has at this instant, never a
// cached one — and return the method name and its decoded arguments. A nil
// error dispatches; ErrMisfit takes the stale path; any other error means
// the request is malformed. method should be returned whenever it could be
// read, so error replies can name it. Resolve runs under the read gate: it
// must not block on the network.
type Resolve func(live dyn.InterfaceDescriptor) (method string, args []dyn.Value, err error)

// CallStats counts call outcomes.
type CallStats struct {
	// Calls counts successfully dispatched method calls.
	Calls uint64
	// AppFaults counts calls whose method body returned an error.
	AppFaults uint64
	// StaleCalls counts calls that did not fit the live interface (each one
	// runs the Section 5.7 forced-publication protocol).
	StaleCalls uint64
	// Malformed counts unparseable requests.
	Malformed uint64
	// Inactive counts calls received before the instance existed.
	Inactive uint64
}

// HTTPCodec is an HTTP binding's wire format: how one call's request
// reads and how its Reply renders. Everything else about serving a call on
// the manager's HTTP endpoint server — the POST check, the body cap, the
// pooled buffers, the declared length and the single write — is
// ClassServer.MountCalls'.
type HTTPCodec struct {
	// Name names the endpoint in the reply to a request that is not a POST.
	Name string
	// Decode is the binding's Resolve over one request, whose body has been
	// read whole into a pooled buffer. The arguments it returns may alias
	// body only while Encode runs: a method body may keep an argument, and
	// the buffer serves another call once the reply is out.
	Decode func(r *http.Request, body []byte, live dyn.InterfaceDescriptor) (method string, args []dyn.Value, err error)
	// Encode maps a call's outcome to its reply: it sets the reply headers
	// but Content-Length on h, appends the body to dst and returns it with
	// the status. It is not called for OutcomeAbandoned.
	Encode func(h http.Header, dst []byte, rep Reply) (body []byte, status int)
}

// ClassServer is the technology-independent whole of one managed server
// class: everything Sections 4 and 5 prescribe and nothing about wire
// formats. It owns the DL Publisher and the document it publishes, the one
// live instance, the call counters, teardown, the live-call protocol of
// Sections 5.1.3, 5.4 and 5.7 (in Call), and the one HTTP call handler
// (MountCalls), which reads a request, calls, and writes the reply once.
// Every binding's server embeds one and adds a codec: an HTTPCodec for
// MountCalls, or a listener of its own that calls Call (CORBA's IIOP
// handler, h2b's fast path). SOAPServer, CORBAServer, jsonb.Server and
// h2b.Server differ in nothing else.
//
// The protocol, stated once. Calls run concurrently under the read gate
// (Section 5.4: the handler is "completely multithreaded"), which is held
// from the instance check through the method body. A call that does not
// fit the live interface releases it, takes the write gate — which waits
// for every running body and stalls every incoming call (Section 5.7:
// "stalls the processing of incoming messages") — forces the published
// interface current, and only then reports "non-existent method". So a
// client that reads that reply and refetches the document is guaranteed to
// see an interface at least as new as the one that refused it; the reply
// carries that very document (Reply.Doc), so the client need not refetch.
// Three rules the per-binding copies of this code used to disagree on: the
// read gate covers the method body on every binding (CORBA used to drop it
// before dispatch, so forced publication did not wait for running bodies there);
// an ended request context skips dispatch on every binding (SOAP used to
// dispatch regardless); and a server without an instance answers "not
// initialized" before looking at the request, so it never forces
// publication (CORBA used to, for an unknown operation).
type ClassServer struct {
	mgr        *Manager
	class      *dyn.Class
	tech       Technology
	pub        *DLPublisher
	docPath    string
	endpoint   string // the address clients call: see Endpoint
	activeOnly bool   // Config.ActivePublishingOnly: the Figure 7 ablation

	gate     sync.RWMutex
	instance atomic.Pointer[dyn.Instance]
	counts   [countedOutcomes]atomic.Uint64

	closed  atomic.Bool
	onClose []func() error // transport teardown; appended during Serve only
	onStale func()         // a test's hook: runs on a stale call before the forced publication
}

// NewClassServer starts class's life as a managed server of technology
// tech: it wires the publication of the interface document gen renders —
// under docPath on the Interface Server, with the given content type —
// through the manager's store, and returns the inactive server for the
// binding's Serve to embed and attach a transport to (MountCalls, or a
// listener of its own released through OnClose).
//
// The publication seam bundles what every binding needs: generated text is
// cached by interface hash, so republishing a previously seen interface
// (undo/redo, A→B→A edit cycles) skips the generator, and documents are
// committed through the store carrying the descriptor version. Nothing is
// published yet: Manager.Register publishes the basic description (Section
// 4) once Serve has returned and set the Endpoint the document names.
func (m *Manager) NewClassServer(class *dyn.Class, tech Technology, docPath, contentType string, gen GenerateFunc) *ClassServer {
	docs := newDocCache()
	pub := NewDLPublisher(class, m.cfg.Timeout, m.cfg.Clock, func(desc dyn.InterfaceDescriptor) error {
		text, ok := docs.get(desc.Hash())
		if !ok {
			var err error
			if text, err = gen(desc); err != nil {
				return err
			}
			docs.put(desc.Hash(), text)
		}
		m.store.PublishVersioned(docPath, contentType, text, desc.Version)
		return nil
	})
	return &ClassServer{
		mgr:        m,
		class:      class,
		tech:       tech,
		pub:        pub,
		docPath:    docPath,
		activeOnly: m.cfg.ActivePublishingOnly,
	}
}

// MountCalls serves calls at path (under Manager.HTTPBaseURL) on the
// manager's shared HTTP endpoint server until Close, in codec's wire
// format, and makes that URL the server's Endpoint.
func (s *ClassServer) MountCalls(path string, codec HTTPCodec) {
	s.endpoint = s.mgr.HTTPBaseURL() + path
	s.mgr.httpMux.handle(path, &muxEntry{calls: s, codec: codec})
	s.OnClose(func() error {
		s.mgr.httpMux.removeHandler(path)
		return nil
	})
}

// bufPool holds the request and reply buffers of the calls MountCalls
// serves.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

// maxPooledBuf bounds the buffer capacity the pool keeps: a one-off bulk
// call must not stay resident.
const maxPooledBuf = 1 << 20

func putBuf(bp *[]byte, b []byte) {
	if cap(b) <= maxPooledBuf {
		*bp = b[:0]
		bufPool.Put(bp)
	}
}

// serveCall is the HTTP call handler of Section 5.1.3, for every binding:
// the request body is read whole into a pooled buffer, Call decodes it
// with the mount's codec, and the reply is rendered into a second pooled
// buffer and written once, with its length declared. A reply with a 5xx
// status counts as one of the mount's errors.
func (e *muxEntry) serveCall(w http.ResponseWriter, r *http.Request) {
	codec := e.codec
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, codec.Name+" endpoint: POST only", http.StatusMethodNotAllowed)
		return
	}
	in := bufPool.Get().(*[]byte)
	body, readErr := h1.ReadBody(*in, r.Body, r.ContentLength)
	rep := e.calls.Call(r.Context(), func(live dyn.InterfaceDescriptor) (string, []dyn.Value, error) {
		if readErr != nil {
			// An oversize body is malformed like a truncated one: it is not
			// decoded.
			return "", nil, readErr
		}
		return codec.Decode(r, body, live)
	})
	if rep.Outcome != OutcomeAbandoned { // else nobody is left to answer
		out := bufPool.Get().(*[]byte)
		reply, status := codec.Encode(w.Header(), (*out)[:0], rep)
		w.Header().Set("Content-Length", strconv.Itoa(len(reply)))
		w.WriteHeader(status)
		_, _ = w.Write(reply) // the client is gone; nobody to tell
		putBuf(out, reply)
		if status >= http.StatusInternalServerError {
			e.errors.Add(1)
		}
	}
	// The reply's value may alias the request body, so the body recycles
	// only once the reply is out.
	putBuf(in, body)
}

// OnClose registers teardown for a resource the binding owns beside the
// shared endpoint server — a listener, an extra published document. Call
// it from Serve only.
func (s *ClassServer) OnClose(fn func() error) { s.onClose = append(s.onClose, fn) }

// Class implements Server.
func (s *ClassServer) Class() *dyn.Class { return s.class }

// Technology implements Server.
func (s *ClassServer) Technology() Technology { return s.tech }

// Publisher implements Server.
func (s *ClassServer) Publisher() *DLPublisher { return s.pub }

// InterfaceURL implements Server.
func (s *ClassServer) InterfaceURL() string { return s.mgr.InterfaceBaseURL() + s.docPath }

// Endpoint implements Server. Serve sets it, before Register publishes.
func (s *ClassServer) Endpoint() string { return s.endpoint }

// CreateInstance implements Server.
func (s *ClassServer) CreateInstance() (*dyn.Instance, error) {
	if s.closed.Load() {
		return nil, errors.New("core: server closed")
	}
	in := s.class.NewInstance()
	if !s.instance.CompareAndSwap(nil, in) {
		return nil, fmt.Errorf("core: class %s already has its instance (single-instance rule, Section 5.4)", s.class.Name())
	}
	return in, nil
}

// Instance implements Server.
func (s *ClassServer) Instance() *dyn.Instance { return s.instance.Load() }

// Active reports whether the instance exists, i.e. whether calls are
// dispatched rather than refused (Section 5.1.3).
func (s *ClassServer) Active() bool { return s.instance.Load() != nil }

// CallStats implements Server.
func (s *ClassServer) CallStats() CallStats {
	return CallStats{
		Calls:      s.counts[OutcomeOK].Load(),
		AppFaults:  s.counts[OutcomeAppFault].Load(),
		StaleCalls: s.counts[OutcomeStale].Load(),
		Malformed:  s.counts[OutcomeMalformed].Load(),
		Inactive:   s.counts[OutcomeInactive].Load(),
	}
}

// Close implements Server: the transport goes first, then the publisher,
// the published document and the manager's registration. Idempotent.
func (s *ClassServer) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	var errs []error
	for _, fn := range s.onClose {
		errs = append(errs, fn())
	}
	s.pub.Close()
	s.mgr.store.Remove(s.docPath)
	s.mgr.unregister(s.class.Name())
	return errors.Join(errs...)
}

// Call serves one remote call by the protocol in the type's comment and
// returns its typed outcome, already counted. ctx is the request context
// the transport threads up; the method body cannot observe it (the dyn
// body ABI is context-free: bodies are developer-edited application code),
// so it is consulted once, just before dispatch.
//
// It is one function, and bindings should keep what they stack on top of it
// shallow. IIOP and h2x no longer start each call on a fresh 2 KB stack: a
// connection's calls run on its worker goroutines, which stay on between
// calls, so a sequential caller's stack grows once. But a burst beyond a
// connection's idle workers still starts fresh goroutines, and the garbage
// collector halves an idle worker's stack when it uses little of it, so
// every frame between the transport and the method body can still be stack
// a call has to grow into.
func (s *ClassServer) Call(ctx context.Context, resolve Resolve) (rep Reply) {
	var refused uint64 // the version of the interface that refused the call
	s.gate.RLock()
	if in := s.instance.Load(); in == nil {
		rep.Outcome = OutcomeInactive
	} else {
		var args []dyn.Value
		var err error
		live := s.class.Interface()
		refused = live.Version
		rep.Method, args, err = resolve(live)
		switch {
		case err == nil && ctx.Err() != nil:
			// The caller is gone; don't run a method nobody will observe.
			rep.Outcome, rep.Err = OutcomeAbandoned, fmt.Errorf("core: call abandoned before dispatch: %w", ctx.Err())
		case err == nil:
			rep.Value, err = in.InvokeDistributed(rep.Method, args...)
			switch {
			case err == nil:
				rep.Outcome = OutcomeOK
			case errors.Is(err, dyn.ErrNoSuchMethod), errors.Is(err, dyn.ErrSignatureMismatch):
				// The interface changed between resolve and dispatch.
				rep.Outcome, refused = OutcomeStale, s.class.InterfaceVersion()
			default:
				rep.Outcome, rep.Err = OutcomeAppFault, err
			}
		case errors.Is(err, ErrMisfit):
			rep.Outcome = OutcomeStale
		default:
			rep.Outcome, rep.Err = OutcomeMalformed, err
		}
	}
	s.gate.RUnlock()

	if rep.Outcome == OutcomeStale {
		if s.onStale != nil {
			s.onStale()
		}
		if !s.activeOnly {
			s.gate.Lock()
			s.pub.EnsureCurrent()
			rep.Doc = s.committedDoc(refused)
			s.gate.Unlock()
		}
	}
	if rep.Outcome != OutcomeAbandoned {
		s.counts[rep.Outcome].Add(1)
	}
	return rep
}

// committedDoc returns what the Interface Server would serve for the class
// at this instant, for a stale reply to carry — or nil when that does not
// vouch for the interface version that refused the call, is over
// ifsvr.MaxCarriedDoc, or there is no manager's store to read (a bare gate).
func (s *ClassServer) committedDoc(refused uint64) *ifsvr.Document {
	if s.mgr == nil {
		return nil
	}
	doc, err := s.mgr.store.Get(s.docPath)
	if err != nil || doc.DescriptorVersion < refused || len(doc.Content) > ifsvr.MaxCarriedDoc {
		return nil
	}
	doc.Generation = s.mgr.store.Generation()
	return &doc
}
