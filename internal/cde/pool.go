package cde

import (
	"context"
	"fmt"
	"net/http"
	"sync"

	"livedev/internal/ior"
	"livedev/internal/orb"
)

// Client-side connection reuse across Dials and compiled stubs.
//
// HTTP bindings already share a keep-alive pool inside their callers
// (internal/h1, when no HTTP client is supplied); the CDE's own document
// traffic — interface fetches and watch streams — goes through
// sharedDocClient below when the caller supplies no HTTP client, so every
// stub compiled against the same Interface Server reuses one connection
// pool instead of dialing per fetch.
//
// The CORBA side has no transport-level pool to lean on, so the CDE keeps
// one: IIOP connections are shared per endpoint (profile address + object
// key), refcounted across the backends that hold them. Two Dials to the
// same published IOR multiplex one TCP connection; iiop.Conn is built for
// that (concurrent requests are matched by request ID).

// sharedDocClient serves interface-document fetches and watch streams when
// no explicit HTTP client is configured. It deliberately has no
// client-level Timeout: watch streams are long by design and are bounded by
// their contexts; per-call deadlines come from Dial's WithTimeout option.
//
// Its transport is plain HTTP/1.1 keep-alive: a fetch reuses one idle
// connection per Interface Server (the stale-call recovery path, Section
// 5.7, pays no dial), and every held watch stream occupies a connection of
// its own until its context ends — W watchers of one server are W sockets
// plus the fetch connection (docs/watch-protocol.md, "Connection cost").
var sharedDocClient = &http.Client{Transport: newDocTransport()}

// newDocTransport clones http.DefaultTransport (keeping its proxy
// environment support and dial/TLS timeouts) with an idle pool deep enough
// that a burst of refreshes against one server finds its connections again
// instead of re-dialling.
func newDocTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 16
	return t
}

// docClient resolves the HTTP client used for document traffic.
func docClient(hc *http.Client) *http.Client {
	if hc != nil {
		return hc
	}
	return sharedDocClient
}

// orbPoolEntry is one shared client ORB plus its refcount. While the dial
// is in flight the entry exists with a nil orb; ready is closed when the
// dial settles (successfully or not).
type orbPoolEntry struct {
	ready chan struct{}
	orb   *orb.ClientORB
	refs  int
}

// orbPool shares ClientORBs per endpoint.
type orbPool struct {
	mu    sync.Mutex
	conns map[string]*orbPoolEntry
}

var sharedORBs = &orbPool{conns: make(map[string]*orbPoolEntry)}

// orbPoolKey identifies one remote object endpoint.
func orbPoolKey(ref ior.IOR) (string, error) {
	p, err := ref.FirstIIOP()
	if err != nil {
		return "", err
	}
	return p.Addr() + "|" + string(p.ObjectKey), nil
}

// acquire returns a shared ClientORB for ref, dialing once per endpoint no
// matter how many backends connect concurrently. The returned release must
// be called exactly once when the backend closes; the connection is torn
// down when the last holder releases it.
func (p *orbPool) acquire(ctx context.Context, ref ior.IOR) (*orb.ClientORB, func() error, error) {
	key, err := orbPoolKey(ref)
	if err != nil {
		return nil, nil, err
	}
	p.mu.Lock()
	for {
		e := p.conns[key]
		if e == nil {
			break
		}
		if e.orb == nil {
			// A dial is in flight; wait for it to settle and re-check (a
			// failed dial removes the entry, so the loop re-dials).
			ready := e.ready
			p.mu.Unlock()
			select {
			case <-ready:
			case <-ctx.Done():
				return nil, nil, fmt.Errorf("cde: waiting for shared IIOP connection: %w", ctx.Err())
			}
			p.mu.Lock()
			continue
		}
		if e.orb.Broken() {
			// The pooled connection died (server restart, network drop):
			// evict it so this and future Dials reconnect instead of
			// inheriting the dead socket. Existing holders keep their
			// entry-bound releases; the last of them closes the old conn.
			delete(p.conns, key)
			break
		}
		e.refs++
		p.mu.Unlock()
		return e.orb, p.releaser(key, e), nil
	}
	e := &orbPoolEntry{ready: make(chan struct{}), refs: 1}
	p.conns[key] = e
	p.mu.Unlock()

	conn, err := orb.DialIORContext(ctx, ref)

	p.mu.Lock()
	if err != nil {
		if p.conns[key] == e {
			delete(p.conns, key)
		}
		close(e.ready)
		p.mu.Unlock()
		return nil, nil, err
	}
	e.orb = conn
	close(e.ready)
	p.mu.Unlock()
	return conn, p.releaser(key, e), nil
}

// releaser returns the once-only release func bound to one entry (not just
// the key: an evicted-and-replaced entry must not decrement its successor).
func (p *orbPool) releaser(key string, e *orbPoolEntry) func() error {
	var once sync.Once
	return func() error {
		var err error
		once.Do(func() {
			p.mu.Lock()
			e.refs--
			last := e.refs == 0
			if last && p.conns[key] == e {
				delete(p.conns, key)
			}
			conn := e.orb
			p.mu.Unlock()
			if last && conn != nil {
				err = conn.Close()
			}
		})
		return err
	}
}

// evictBroken removes the pool entry holding conn when the connection is
// dead, so later acquires re-dial instead of inheriting the broken socket.
// The CORBA backend calls it when a watch update signals a server restart;
// holders keep their entry-bound releases and the last of them closes the
// old connection.
func (p *orbPool) evictBroken(conn *orb.ClientORB) {
	if conn == nil || !conn.Broken() {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for key, e := range p.conns {
		if e.orb == conn {
			delete(p.conns, key)
		}
	}
}

// stats reports the pool's current size and total holder count.
func (p *orbPool) stats() (conns, refs int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.conns {
		conns++
		refs += e.refs
	}
	return conns, refs
}

// IIOPPoolStats reports the shared IIOP connection pool's current size and
// total holder count — observability for tests and the experiments harness.
func IIOPPoolStats() (conns, refs int) { return sharedORBs.stats() }
