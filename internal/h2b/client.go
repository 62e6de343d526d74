package h2b

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"livedev/internal/cde"
	"livedev/internal/cdr"
	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/h2x"
	"livedev/internal/ifsvr"
)

// ErrNonExistentMethod is the client-visible form of the binding's
// "non-existent method" error code. Receiving it guarantees the published
// interface document is already current (Section 5.7), so the CDE reacts
// by re-fetching it.
var ErrNonExistentMethod = errors.New("h2b: non-existent method")

// AppError is a server-side application error delivered to the client.
type AppError struct {
	Message string
}

// Error implements error.
func (e *AppError) Error() string { return "server application error: " + e.Message }

// The binding's shared call transport. An h2b interface document promises
// its endpoint speaks cleartext HTTP/2 — the server half mounts on the
// manager's h2c-enabled listener — so the client sends prior-knowledge h2
// with no probe and no HTTP/1.1 fallback for http:// endpoints (https
// endpoints negotiate h2 via ALPN). MaxConnsPerHost pins the design
// point: one long-lived TCP connection per endpoint, with concurrent
// calls multiplexed as concurrent streams rather than racing dials the
// way HTTP/1.1 keep-alive (or an unlimited pool) would under parallel
// load. Every dial is counted per endpoint so "N parallel callers share
// one connection" is test-assertable (Dials/TransportStats).
var sharedCallClient = &http.Client{Transport: newCallTransport()}

func newCallTransport() *http.Transport {
	var p http.Protocols
	p.SetHTTP2(true)
	p.SetUnencryptedHTTP2(true)
	dial := (&net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}).DialContext
	return &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dial(ctx, network, addr)
			if err == nil {
				countCallDial(addr)
			}
			return c, err
		},
		Protocols:       &p,
		MaxConnsPerHost: 1,
		ReadBufferSize:  1 << 16,
		WriteBufferSize: 1 << 16,
		HTTP2: &http.HTTP2Config{
			MaxConcurrentStreams:          512,
			MaxReceiveBufferPerConnection: 1 << 20,
			MaxReceiveBufferPerStream:     1 << 18,
		},
	}
}

// Per-endpoint TCP dial counters for the shared call transport.
var (
	callDialMu    sync.Mutex
	callDialCount = make(map[string]int)
)

func countCallDial(addr string) {
	callDialMu.Lock()
	callDialCount[addr]++
	callDialMu.Unlock()
}

// Dials reports how many TCP connections the shared call transport has
// dialed to addr (a "host:port") over the process lifetime. With HTTP/2
// multiplexing, N parallel callers against one endpoint should move this
// by one, not by N.
func Dials(addr string) int {
	callDialMu.Lock()
	defer callDialMu.Unlock()
	return callDialCount[addr]
}

// TransportStats reports the shared call transport's total dialed
// connections and the number of distinct endpoints dialed — the binding's
// sibling of cde.IIOPPoolStats.
func TransportStats() (dials, endpoints int) {
	callDialMu.Lock()
	defer callDialMu.Unlock()
	for _, n := range callDialCount {
		dials += n
	}
	return dials, len(callDialCount)
}

// DialedEndpoints returns the dialed endpoints, sorted — a debugging aid
// for connection-count assertions.
func DialedEndpoints() []string {
	callDialMu.Lock()
	defer callDialMu.Unlock()
	eps := make([]string, 0, len(callDialCount))
	for e := range callDialCount {
		eps = append(eps, e)
	}
	sort.Strings(eps)
	return eps
}

// The fast-path connection pool: one long-lived h2x connection per mux
// endpoint, shared by every caller in the process (the stdlib transport's
// MaxConnsPerHost=1 design point, kept by hand). Dials are
// single-flighted — under a parallel burst the first caller dials while
// the rest wait on ready — and counted in the same per-endpoint counters
// as the stdlib transport, so Dials() assertions cover both paths.
var (
	muxMu    sync.Mutex
	muxConns = make(map[string]*muxEntry)
)

type muxEntry struct {
	ready chan struct{} // closed once conn/err are set
	conn  *h2x.ClientConn
	err   error
}

func muxConn(addr string) (*h2x.ClientConn, error) {
	for {
		muxMu.Lock()
		e := muxConns[addr]
		stale := false
		if e != nil {
			select {
			case <-e.ready:
				if e.err == nil && e.conn.Alive() {
					muxMu.Unlock()
					return e.conn, nil
				}
				stale = true // dead conn (or failed dial left behind); replace
			default:
				// A dial is in flight; wait for it outside the lock.
			}
		}
		if e == nil || stale {
			ne := &muxEntry{ready: make(chan struct{})}
			muxConns[addr] = ne
			muxMu.Unlock()
			ne.conn, ne.err = h2x.Dial(addr)
			if ne.err == nil {
				countCallDial(addr)
			} else {
				muxMu.Lock()
				if muxConns[addr] == ne {
					delete(muxConns, addr)
				}
				muxMu.Unlock()
			}
			close(ne.ready)
			return ne.conn, ne.err
		}
		muxMu.Unlock()
		<-e.ready
		if e.err == nil && e.conn.Alive() {
			return e.conn, nil
		}
		if e.err != nil {
			return nil, e.err
		}
		// The awaited conn died immediately; loop and redial.
	}
}

// Caller posts CDR calls to one endpoint URL — the transport half of an
// h2b client stub (the analogue of jsonb.Caller). Calls always ride the
// binding's shared prior-knowledge h2c transport: the interface document
// advertising the endpoint promises HTTP/2, and a caller-supplied HTTP
// client (whose transport would speak HTTP/1.1) applies to document
// traffic only.
type Caller struct {
	// Endpoint is the CDR-POST endpoint URL.
	Endpoint string
	// Mux, when non-empty, is the "host:port" of the server's dedicated
	// fast-path listener (the document's mux_endpoint); calls then ride a
	// pooled h2x connection instead of the stdlib HTTP stack. The wire
	// contract — headers, bodies, error codes — is identical on both.
	Mux string
}

// Call performs one RPC against sig. Cancelling ctx resets the in-flight
// HTTP/2 stream and returns an error wrapping ctx.Err().
func (c *Caller) Call(ctx context.Context, sig dyn.MethodSig, args []dyn.Value) (dyn.Value, error) {
	if len(args) != len(sig.Params) {
		return dyn.Value{}, fmt.Errorf("h2b: %s takes %d arguments, got %d", sig.Name, len(sig.Params), len(args))
	}
	e := cdr.GetEncoder(cdr.BigEndian)
	for i, a := range args {
		if !a.Type().Equal(sig.Params[i].Type) {
			cdr.PutEncoder(e)
			return dyn.Value{}, fmt.Errorf("h2b: %s parameter %s wants %s, got %s",
				sig.Name, sig.Params[i].Name, sig.Params[i].Type, a.Type())
		}
		if err := cdr.EncodeValue(e, a); err != nil {
			cdr.PutEncoder(e)
			return dyn.Value{}, err
		}
	}
	if c.Mux != "" {
		v, err := c.callMux(ctx, sig, e.Bytes())
		// The engine copies the body into the connection's write buffer
		// before Do returns — on success and on every error path — so the
		// pooled encoder is always safe to recycle here.
		cdr.PutEncoder(e)
		return v, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Endpoint, bytes.NewReader(e.Bytes()))
	if err != nil {
		cdr.PutEncoder(e)
		return dyn.Value{}, fmt.Errorf("h2b: building HTTP request: %w", err)
	}
	req.Header.Set("Content-Type", CallContentType)
	req.Header.Set(MethodHeader, sig.Name)
	req.Header.Set(OrderHeader, orderValue(cdr.BigEndian))

	resp, err := sharedCallClient.Do(req)
	if err != nil {
		// An aborted round trip (stream reset on cancellation) may leave
		// the transport's write path still aliasing the encoder buffer:
		// abandon the encoder to the GC instead of recycling it.
		return dyn.Value{}, fmt.Errorf("h2b: posting to %s: %w", c.Endpoint, err)
	}
	// The server reads the whole argument stream before replying, so a
	// response means the request body is fully consumed and the pooled
	// encoder is safe to recycle.
	cdr.PutEncoder(e)
	defer func() { _ = resp.Body.Close() }()

	if code := resp.Header.Get(ErrorHeader); code != "" || resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		switch code {
		case CodeNonExistentMethod:
			return dyn.Value{}, fmt.Errorf("%w: %s", ErrNonExistentMethod, msg)
		case CodeApplication:
			return dyn.Value{}, &AppError{Message: string(msg)}
		default:
			return dyn.Value{}, fmt.Errorf("h2b: server error %s (HTTP %d): %s", code, resp.StatusCode, msg)
		}
	}
	body, err := readBody(resp.Body)
	if err != nil {
		return dyn.Value{}, fmt.Errorf("h2b: reading reply for %s: %w", sig.Name, err)
	}
	if sig.Result == nil || sig.Result.Kind() == dyn.KindVoid {
		return dyn.VoidValue(), nil
	}
	order, err := parseOrder(resp.Header.Get(OrderHeader))
	if err != nil {
		return dyn.Value{}, err
	}
	// The reply body is this call's own heap buffer: the zero-copy decode
	// may alias it, the result value keeps it alive.
	d := cdr.NewDecoder(body, order)
	d.SetZeroCopy(true)
	v, err := cdr.DecodeValue(d, sig.Result)
	if err != nil {
		return dyn.Value{}, fmt.Errorf("h2b: decoding %s result: %w", sig.Name, err)
	}
	return v, nil
}

// callMux performs one RPC over the pooled fast-path connection. It is
// the same wire exchange as the stdlib path — POST, the X-H2B-* headers,
// a CDR body each way — framed by the h2x engine.
func (c *Caller) callMux(ctx context.Context, sig dyn.MethodSig, body []byte) (dyn.Value, error) {
	req := &h2x.Request{
		Method:    "POST",
		Authority: c.Mux,
		Path:      muxCallPath,
		Header: [][2]string{
			{"content-type", CallContentType},
			{muxMethodHeader, sig.Name},
			{muxOrderHeader, orderValue(cdr.BigEndian)},
		},
		Body: body,
	}
	var resp *h2x.Response
	for attempt := 0; ; attempt++ {
		conn, err := muxConn(c.Mux)
		if err != nil {
			return dyn.Value{}, fmt.Errorf("h2b: dialing mux endpoint %s: %w", c.Mux, err)
		}
		resp, err = conn.Do(ctx, req)
		if err == nil {
			break
		}
		// A pooled connection can die between calls (server restart); one
		// redial covers that without masking a live failure.
		if errors.Is(err, h2x.ErrConnClosed) && attempt == 0 && ctx.Err() == nil {
			continue
		}
		return dyn.Value{}, fmt.Errorf("h2b: calling mux endpoint %s: %w", c.Mux, err)
	}

	if code := resp.HeaderValue(muxErrorHeader); code != "" || resp.Status != http.StatusOK {
		msg := resp.Body
		if len(msg) > 1<<16 {
			msg = msg[:1<<16]
		}
		switch code {
		case CodeNonExistentMethod:
			return dyn.Value{}, fmt.Errorf("%w: %s", ErrNonExistentMethod, msg)
		case CodeApplication:
			return dyn.Value{}, &AppError{Message: string(msg)}
		default:
			return dyn.Value{}, fmt.Errorf("h2b: server error %s (HTTP %d): %s", code, resp.Status, msg)
		}
	}
	if sig.Result == nil || sig.Result.Kind() == dyn.KindVoid {
		return dyn.VoidValue(), nil
	}
	order, err := parseOrder(resp.HeaderValue(muxOrderHeader))
	if err != nil {
		return dyn.Value{}, err
	}
	// The reply body is this call's own buffer (the engine never recycles
	// received frames into other streams), so the zero-copy decode may
	// alias it; the result value keeps it alive.
	d := cdr.NewDecoder(resp.Body, order)
	d.SetZeroCopy(true)
	v, err := cdr.DecodeValue(d, sig.Result)
	if err != nil {
		return dyn.Value{}, fmt.Errorf("h2b: decoding %s result: %w", sig.Name, err)
	}
	return v, nil
}

// Binding is the complete CDR-over-HTTP/2 RMI technology: the server half
// (core.Binding: Name + Serve) and the client half (Describe + Connect,
// the cde.Connector shape). livedev.RegisterBinding accepts it directly.
type Binding struct{}

// New returns the binding.
func New() Binding { return Binding{} }

// Name implements core.Binding.
func (Binding) Name() string { return Name }

// Serve implements core.Binding.
func (Binding) Serve(m *core.Manager, class *dyn.Class) (core.Server, error) {
	return newServer(m, class)
}

// Describe reports how the binding's interface documents are recognized.
func (Binding) Describe() cde.DocMatch {
	return cde.DocMatch{
		ContentTypes: []string{DocContentType},
		PathSuffixes: []string{".h2b"},
		Content:      func(doc string) bool { return strings.Contains(doc, DocFormat) },
	}
}

// Connect builds a live CDE client from the interface-document URL: the
// binding's document parser and Caller under cde's document backend, which
// also makes the binding watch-capable. opts.HTTPClient applies to
// document traffic only.
func (Binding) Connect(ctx context.Context, url string, opts *cde.DialOptions) (*cde.Client, error) {
	return cde.ConnectDocs(ctx, url, opts, cde.DocBinding{
		Technology: Name,
		Compile: func(doc ifsvr.Document) (dyn.InterfaceDescriptor, cde.Caller, error) {
			desc, endpoint, mux, err := ParseDoc(doc.Content)
			if err != nil {
				return dyn.InterfaceDescriptor{}, nil, err
			}
			desc.Version = doc.DescriptorVersion
			return desc, &Caller{Endpoint: endpoint, Mux: mux}, nil
		},
		IsStale: func(err error) bool { return errors.Is(err, ErrNonExistentMethod) },
	})
}

// Connector returns the client half as a cde.Connector, for callers wiring
// the registries directly rather than through livedev.RegisterBinding.
func Connector() cde.Connector {
	b := Binding{}
	return cde.Connector{Name: Name, Match: b.Describe(), Connect: b.Connect}
}
