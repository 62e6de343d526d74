package h2b

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

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
// by installing the document the reply carries, or by re-fetching it.
var ErrNonExistentMethod = errors.New("h2b: non-existent method")

// StaleError is a "non-existent method" reply: the server's message, and
// the interface document the reply carried, if any. It matches
// ErrNonExistentMethod.
type StaleError struct {
	Message   string
	Interface *ifsvr.Document
}

// Error implements error.
func (e *StaleError) Error() string { return ErrNonExistentMethod.Error() + ": " + e.Message }

// Unwrap returns ErrNonExistentMethod.
func (e *StaleError) Unwrap() error { return ErrNonExistentMethod }

// AppError is a server-side application error delivered to the client.
type AppError struct {
	Message string
}

// Error implements error.
func (e *AppError) Error() string { return "server application error: " + e.Message }

// The fast-path connection pool: one long-lived h2x connection per mux
// endpoint, shared by every caller in the process. Dials are
// single-flighted — under a parallel burst the first caller dials while
// the rest wait on ready — and counted per endpoint, so "N parallel
// callers share one connection" is test-assertable (Dials).
var (
	muxMu    sync.Mutex
	muxConns = make(map[string]*muxEntry)
	muxDials = make(map[string]int) // endpoint -> connections dialed, under muxMu
)

// Dials reports how many fast-path connections have been dialed to addr
// (a "host:port") over the process lifetime. N parallel callers against
// one mux endpoint should move this by one, not by N.
func Dials(addr string) int {
	muxMu.Lock()
	defer muxMu.Unlock()
	return muxDials[addr]
}

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
			muxMu.Lock()
			if ne.err == nil {
				muxDials[addr]++
			} else if muxConns[addr] == ne {
				delete(muxConns, addr)
			}
			muxMu.Unlock()
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
// h2b client stub (the analogue of jsonb.Caller). With Mux set, calls ride
// the pooled fast-path connection; without it they are plain HTTP POSTs on
// http.DefaultClient's keep-alive pool, one connection per in-flight call.
// A caller-supplied HTTP client applies to document traffic only.
type Caller struct {
	// Endpoint is the CDR-POST endpoint URL.
	Endpoint string
	// Mux, when non-empty, is the "host:port" of the server's dedicated
	// fast-path listener (the document's mux_endpoint); calls then ride a
	// pooled h2x connection instead of the stdlib HTTP stack. The wire
	// contract — headers, bodies, error codes — is identical on both.
	Mux string
}

// Call performs one RPC against sig. Cancelling ctx aborts the in-flight
// call (a stream reset on the fast path, a closed connection on the plain
// POST) and returns an error wrapping ctx.Err().
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
	// The transport may go on reading a request body after Do returns (a
	// reply that overtakes the upload, an aborted round trip), so it gets
	// bytes of its own and the pooled encoder is recycled here.
	payload := append([]byte(nil), e.Bytes()...)
	cdr.PutEncoder(e)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Endpoint, bytes.NewReader(payload))
	if err != nil {
		return dyn.Value{}, fmt.Errorf("h2b: building HTTP request: %w", err)
	}
	req.Header.Set("Content-Type", CallContentType)
	req.Header.Set(MethodHeader, sig.Name)
	req.Header.Set(OrderHeader, orderValue(cdr.BigEndian))

	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return dyn.Value{}, fmt.Errorf("h2b: posting to %s: %w", c.Endpoint, err)
	}
	defer func() { _ = resp.Body.Close() }()

	if code := resp.Header.Get(ErrorHeader); code != "" || resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, max(maxMessage, ifsvr.MaxCarriedDoc)+1))
		return dyn.Value{}, replyError(sig, code, resp.StatusCode, msg, resp.Header.Get)
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
// the same wire exchange as the plain POST — the X-H2B-* headers, a CDR
// body each way — framed by the h2x engine.
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
		return dyn.Value{}, replyError(sig, code, resp.Status, resp.Body, func(name string) string {
			return resp.HeaderValue(strings.ToLower(name))
		})
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

// maxMessage bounds the error text an error reply is reported with.
const maxMessage = 1 << 16

// replyError is the error an error reply to a call against sig stands for:
// its code, HTTP status and body, and its headers as get reads them. A
// stale reply's body is the interface document it carries when get finds
// the document's counters; the caller reads it to one octet past
// ifsvr.MaxCarriedDoc, so one at the bound arrives whole and one past it is
// refused, not cut.
func replyError(sig dyn.MethodSig, code string, status int, body []byte, get func(string) string) error {
	if code == CodeNonExistentMethod && len(body) <= ifsvr.MaxCarriedDoc {
		if doc, ok := ifsvr.CarriedDoc(string(body), get); ok {
			return &StaleError{Message: "method " + sig.Name + " is not part of the current server interface", Interface: &doc}
		}
	}
	msg := body[:min(len(body), maxMessage)]
	switch code {
	case CodeNonExistentMethod:
		return &StaleError{Message: string(msg)}
	case CodeApplication:
		return &AppError{Message: string(msg)}
	default:
		return fmt.Errorf("h2b: server error %s (HTTP %d): %s", code, status, msg)
	}
}

// Binding is the complete CDR-over-HTTP RMI technology: the server half
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
// binding's document parser and Caller under the client cde.ConnectDocs
// builds, which also makes the binding watch-capable. opts.HTTPClient applies to
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
		StaleDoc: func(err error) *ifsvr.Document {
			var stale *StaleError
			if errors.As(err, &stale) {
				return stale.Interface
			}
			return nil
		},
	})
}

// Connector returns the client half as a cde.Connector, for callers wiring
// the registries directly rather than through livedev.RegisterBinding.
func Connector() cde.Connector {
	b := Binding{}
	return cde.Connector{Name: Name, Match: b.Describe(), Connect: b.Connect}
}
