// Package bridge implements the paper's future-work feature (Section 8):
// "the ability to interchange the technology being used to communicate
// between the client and the server while live development and information
// exchange is taking place. Although some SOAP to CORBA bridging
// technologies offer static bridging capabilities, we feel that live
// modification will result in a more fluid development experience."
//
// A Front re-exports the class behind any CDE client over any registered
// RMI technology: the backend's live interface view is mirrored into a
// proxy dynamic class whose method bodies forward calls over the backend,
// and the proxy class is deployed through the ordinary binding registry
// under an SDE Manager. That one construction replaces the old hardcoded
// SOAP↔CORBA pairing with every direction the registry supports
// (SOAP↔CORBA↔JSON and any third-party binding), and it inherits the whole
// publication core for free: the bridge's derived interface document is
// published through the manager's publication store, stale calls from front
// clients run the Section 5.7 forced-publication protocol, and — because
// the proxy class is an ordinary dynamic class — server-side edits
// propagate through the bridge live.
//
// Unlike the static bridges the paper cites (Orbix/Artix), propagation is
// event-driven end to end: the backend client's view-change hook (fed by a
// reactive refresh, or by a push watcher when the backend was dialed with
// the watch option) resynchronizes the proxy class, whose own DL Publisher
// then republishes the derived document, whose committed version wakes the
// front clients' watchers. The "Non Existent Method" recency guarantee
// crosses the bridge intact: a stale bridged call reactively refreshes the
// backend view, resyncs the proxy class, and forces the bridge's own
// publication current before the fault reaches the front client.
package bridge

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"livedev/internal/cde"
	"livedev/internal/core"
	"livedev/internal/dyn"
)

// Front re-exports the class behind a CDE client over another registered
// binding. Create one with New; the front appears to its clients as an
// ordinary managed SDE server (srv.InterfaceURL() is dialable).
type Front struct {
	name    string
	backend *cde.Client
	mgr     *core.Manager
	class   *dyn.Class
	srv     core.Server

	// syncMu serializes proxy-class resynchronization (view-change hook,
	// stale bridged calls, manual Refresh).
	syncMu  sync.Mutex
	methods map[string]dyn.MemberID // proxy method name → member id

	removeHook func() // unregisters the backend view listener

	mu     sync.Mutex
	closed bool
}

// New deploys a re-export of backend's class under m as a live server of
// technology tech (any name registered with the binding registry). name is
// the re-exported class name. The front does not own the backend client;
// the caller closes it after the front.
func New(m *core.Manager, name string, backend *cde.Client, tech core.Technology) (*Front, error) {
	f := &Front{
		name:    name,
		backend: backend,
		mgr:     m,
		class:   dyn.NewClass(name),
		methods: make(map[string]dyn.MemberID),
	}
	if err := f.syncClass(); err != nil {
		return nil, fmt.Errorf("bridge: mirroring backend interface: %w", err)
	}
	// Event-driven re-export: every installed backend view (reactive
	// refresh, watch push, manual refresh) resynchronizes the proxy class,
	// which arms the bridge server's own DL Publisher.
	f.removeHook = backend.AddViewListener(func() { _ = f.syncClass() })
	srv, err := m.Register(f.class, tech)
	if err != nil {
		f.removeHook()
		return nil, err
	}
	f.srv = srv
	if _, err := srv.CreateInstance(); err != nil {
		f.removeHook()
		_ = srv.Close()
		return nil, err
	}
	return f, nil
}

// Name returns the re-exported class name.
func (f *Front) Name() string { return f.name }

// Server returns the managed server fronting the bridge — the handle front
// clients are given (InterfaceURL, Publisher, technology-specific accessors
// via type assertion).
func (f *Front) Server() core.Server { return f.srv }

// InterfaceURL returns the URL of the bridge's derived interface document.
func (f *Front) InterfaceURL() string { return f.srv.InterfaceURL() }

// Technology reports the front-side technology.
func (f *Front) Technology() core.Technology { return f.srv.Technology() }

// Refresh re-fetches the backend interface and resynchronizes the proxy
// class (the view-change hook does this automatically; Refresh is the
// manual trigger).
func (f *Front) Refresh() error {
	if err := f.backend.Refresh(); err != nil {
		return err
	}
	return f.syncClass()
}

// syncClass mirrors the backend client's current interface view onto the
// proxy class: methods gone from the backend are removed, new or re-signed
// methods are (re)added with forwarding bodies. Edits go through the
// ordinary dyn.Class commit path, so the bridge server's publisher sees
// them like any developer edit.
func (f *Front) syncClass() error {
	f.syncMu.Lock()
	defer f.syncMu.Unlock()
	desc := f.backend.Interface()
	desired := make(map[string]dyn.MethodSig, len(desc.Methods))
	for _, sig := range desc.Methods {
		desired[sig.Name] = sig
	}
	cur := f.class.Interface()
	// Drop proxies whose backend method is gone or re-signed.
	for name, id := range f.methods {
		sig, ok := desired[name]
		if ok {
			if have, live := cur.Lookup(name); live && have.Equal(sig) {
				continue
			}
		}
		if err := f.class.RemoveMethod(id); err != nil {
			return err
		}
		delete(f.methods, name)
	}
	// Add the missing ones.
	for name, sig := range desired {
		if _, have := f.methods[name]; have {
			continue
		}
		id, err := f.class.AddMethod(dyn.MethodSpec{
			Name:        sig.Name,
			Params:      sig.Params,
			Result:      sig.Result,
			Distributed: true,
			Body:        f.forwardBody(name),
		})
		if err != nil {
			return err
		}
		f.methods[name] = id
	}
	return nil
}

// forwardBody returns the proxy method body for op: forward the call over
// the backend client; map bridged staleness onto the front technology's
// "Non Existent Method" protocol.
//
// The dyn Body ABI is context-free (bodies are developer-edited application
// code), so the front-side request context cannot reach the backend
// round-trip: a cancelled front caller does not abort the bridged call.
// Dial the backend with a timeout (livedev.WithTimeout) so a hung backend
// cannot park the front's handler goroutines indefinitely; threading the
// front context end to end is a ROADMAP item (context-aware Body ABI).
func (f *Front) forwardBody(op string) dyn.Body {
	return func(_ *dyn.Instance, args []dyn.Value) (dyn.Value, error) {
		v, err := f.backend.CallContext(context.Background(), op, args...)
		if err == nil {
			return v, nil
		}
		if errors.Is(err, cde.ErrStaleMethod) || errors.Is(err, cde.ErrNoSuchStub) {
			// The backend already refreshed its view reactively; mirror it
			// into the proxy class now so the front binding's forced
			// publication (run before its "Non Existent Method" reply)
			// publishes the post-edit interface — the recency guarantee
			// crosses the bridge.
			_ = f.syncClass()
			return dyn.Value{}, fmt.Errorf("%w: bridged backend: %v", dyn.ErrNoSuchMethod, err)
		}
		return dyn.Value{}, err
	}
}

// Close shuts the front down (the backend client stays open; the caller
// owns it).
func (f *Front) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	f.removeHook()
	if f.srv != nil {
		return f.srv.Close()
	}
	return nil
}
