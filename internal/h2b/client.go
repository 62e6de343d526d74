package h2b

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"livedev/internal/cde"
	"livedev/internal/cdr"
	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/h1"
	"livedev/internal/h2x"
	"livedev/internal/ifsvr"
)

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
		if e == nil { // dial; callers that come meanwhile wait on ready
			e = &muxEntry{ready: make(chan struct{})}
			muxConns[addr] = e
			muxMu.Unlock()
			e.conn, e.err = h2x.Dial(addr)
			muxMu.Lock()
			if e.err == nil {
				muxDials[addr]++
			} else {
				delete(muxConns, addr)
			}
			muxMu.Unlock()
			close(e.ready)
			return e.conn, e.err
		}
		muxMu.Unlock()
		<-e.ready
		if e.err != nil || e.conn.Alive() {
			return e.conn, e.err
		}
		muxMu.Lock()
		if muxConns[addr] == e {
			delete(muxConns, addr) // dead: the next pass dials again
		}
		muxMu.Unlock()
	}
}

// Caller posts CDR calls to one endpoint URL — the transport half of an
// h2b client stub (the analogue of jsonb.Caller). With Mux set, calls ride
// the pooled fast-path connection; without it they are plain HTTP/1.1
// POSTs on h1.Post's direct client. A caller-supplied HTTP client applies
// to document traffic only.
type Caller struct {
	// Endpoint is the CDR-POST endpoint URL.
	Endpoint string
	// Mux, when non-empty, is the "host:port" of the server's dedicated
	// fast-path listener (the document's mux_endpoint); calls then ride a
	// pooled h2x connection instead of the stdlib HTTP stack. The wire
	// contract — headers, bodies, error codes — is identical on both.
	Mux string
}

// Call performs one RPC against sig. A "non-existent method" reply is a
// *cde.StaleReply, an application error a *cde.AppError. Cancelling ctx
// aborts the in-flight call (a stream reset on the fast path, a closed
// connection on the plain POST) and returns an error wrapping ctx.Err().
func (c *Caller) Call(ctx context.Context, sig dyn.MethodSig, args []dyn.Value) (dyn.Value, error) {
	e := cdr.GetEncoder(cdr.BigEndian)
	// Both transports copy the body before they return, on success and on
	// every error path, so the pooled encoder is always safe to recycle.
	defer cdr.PutEncoder(e)
	for _, a := range args {
		if err := cdr.EncodeValue(e, a); err != nil {
			return dyn.Value{}, err
		}
	}
	if c.Mux == "" {
		var v dyn.Value
		err := h1.Exchange(ctx, nil, c.Endpoint, func(body []byte, header [][2]string) ([]byte, [][2]string, error) {
			return append(body, e.Bytes()...), append(header,
				[2]string{"Content-Type", CallContentType},
				[2]string{MethodHeader, sig.Name},
				[2]string{OrderHeader, orderValue(cdr.BigEndian)}), nil
		}, func(r h1.Reply) (err error) {
			// The exchange recycles the reply's buffer, and the zero-copy
			// decode may alias the body: it gets a buffer of its own.
			v, err = decodeReply(sig, r.Status, r.Header, bytes.Clone(r.Body))
			return err
		})
		return v, err
	}
	// The fast path: the same wire exchange as the plain POST, framed by
	// the h2x engine on the pooled connection.
	req := &h2x.Request{
		Method:    "POST",
		Authority: c.Mux,
		Path:      muxCallPath,
		Header: [][2]string{
			{"content-type", CallContentType},
			{muxMethodHeader, sig.Name},
			{muxOrderHeader, orderValue(cdr.BigEndian)},
		},
		Body: e.Bytes(),
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
	// The reply body is this call's own buffer: the engine never recycles
	// received frames into other streams.
	return decodeReply(sig, resp.Status, resp.HeaderValue, resp.Body)
}

// decodeReply reads the reply to a call against sig on either transport:
// its status, its header as get reads it, and a body of the call's own,
// which the zero-copy decode lets the result alias.
func decodeReply(sig dyn.MethodSig, status int, get func(string) string, body []byte) (dyn.Value, error) {
	if code := get(ErrorHeader); code != "" || status != http.StatusOK {
		return dyn.Value{}, replyError(sig, code, status, body, get)
	}
	if sig.Result == nil || sig.Result.Kind() == dyn.KindVoid {
		return dyn.VoidValue(), nil
	}
	order, err := parseOrder(get(OrderHeader))
	if err != nil {
		return dyn.Value{}, err
	}
	d := cdr.NewDecoder(body, order)
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
// the document's counters and it is at most ifsvr.MaxCarriedDoc long.
func replyError(sig dyn.MethodSig, code string, status int, body []byte, get func(string) string) error {
	if code == CodeNonExistentMethod && len(body) <= ifsvr.MaxCarriedDoc {
		if doc, ok := ifsvr.CarriedDoc(string(body), get); ok {
			return &cde.StaleReply{Doc: &doc,
				Err: errors.New("h2b: non-existent method: method " + sig.Name + " is not part of the current server interface")}
		}
	}
	msg := body[:min(len(body), maxMessage)]
	switch code {
	case CodeNonExistentMethod:
		return &cde.StaleReply{Err: errors.New("h2b: non-existent method: " + string(msg))}
	case CodeApplication:
		return &cde.AppError{Message: string(msg)}
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
		Compile: func(doc ifsvr.Document, base string) (dyn.InterfaceDescriptor, cde.Caller, error) {
			desc, endpoint, mux, err := ParseDoc(doc.Content)
			if err != nil {
				return dyn.InterfaceDescriptor{}, nil, err
			}
			desc.Version = doc.DescriptorVersion
			return desc, &Caller{Endpoint: cde.ResolveAddr(endpoint, base), Mux: cde.ResolveAddr(mux, base)}, nil
		},
	})
}

// Connector returns the client half as a cde.Connector, for callers wiring
// the registries directly rather than through livedev.RegisterBinding.
func Connector() cde.Connector {
	b := Binding{}
	return cde.Connector{Name: Name, Match: b.Describe(), Connect: b.Connect}
}
