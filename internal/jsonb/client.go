package jsonb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"livedev/internal/cde"
	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/ifsvr"
)

// ErrNonExistentMethod is the client-visible form of the binding's
// "non-existent method" error code. Receiving it guarantees the published
// interface document is already current (Section 5.7), so the CDE reacts
// by installing the document the reply carries, or by re-fetching it.
var ErrNonExistentMethod = errors.New("jsonb: non-existent method")

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

var defaultHTTPClient = &http.Client{Timeout: 30 * time.Second}

// Caller posts calls to one endpoint URL — the transport half of a JSON
// client stub (the analogue of soap.Client).
type Caller struct {
	// Endpoint is the JSON-POST endpoint URL.
	Endpoint string
	// HTTPClient is used for transport; a default client is used when nil.
	HTTPClient *http.Client
}

func (c *Caller) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return defaultHTTPClient
}

// Call performs one RPC against sig. Cancelling ctx aborts the in-flight
// HTTP round-trip and returns an error wrapping ctx.Err().
func (c *Caller) Call(ctx context.Context, sig dyn.MethodSig, args []dyn.Value) (dyn.Value, error) {
	if len(args) != len(sig.Params) {
		return dyn.Value{}, fmt.Errorf("jsonb: %s takes %d arguments, got %d", sig.Name, len(sig.Params), len(args))
	}
	for i, a := range args {
		if !a.Type().Equal(sig.Params[i].Type) {
			return dyn.Value{}, fmt.Errorf("jsonb: %s parameter %s wants %s, got %s",
				sig.Name, sig.Params[i].Name, sig.Params[i].Type, a.Type())
		}
	}
	cd := getCodec()
	defer putCodec(cd)
	var err error
	if cd.buf, err = appendRequest(cd.buf[:0], sig.Name, args); err != nil {
		return dyn.Value{}, err
	}
	// The transport may go on reading a request body after Do returns (a
	// reply that overtakes the upload), so it gets bytes of its own and the
	// pooled buffer is free for the reply.
	payload := append([]byte(nil), cd.buf...)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Endpoint, bytes.NewReader(payload))
	if err != nil {
		return dyn.Value{}, fmt.Errorf("jsonb: building HTTP request: %w", err)
	}
	req.Header.Set("Content-Type", ContentType)

	resp, err := c.httpClient().Do(req)
	if err != nil {
		return dyn.Value{}, fmt.Errorf("jsonb: posting to %s: %w", c.Endpoint, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if cd.buf, err = readBody(cd.buf[:0], resp.Body, resp.ContentLength); err != nil {
		return dyn.Value{}, fmt.Errorf("jsonb: reading response (HTTP %d): %w", resp.StatusCode, err)
	}
	result := sig.Result
	if result == nil {
		result = dyn.Void
	}
	cd.reset(cd.buf)
	parsed, err := cd.parseReply(result)
	if err != nil {
		return dyn.Value{}, fmt.Errorf("jsonb: reading response (HTTP %d): %w", resp.StatusCode, err)
	}
	switch {
	case parsed.failed:
		code, msg := parsed.failure.Index(0).Str(), parsed.failure.Index(1).Str()
		switch code {
		case CodeNonExistentMethod:
			stale := &StaleError{Message: msg}
			if parsed.iface != nil {
				if doc, ok := ifsvr.CarriedDoc(string(parsed.iface), resp.Header.Get); ok {
					stale.Interface = &doc
				}
			}
			return dyn.Value{}, stale
		case CodeApplication:
			return dyn.Value{}, &AppError{Message: msg}
		default:
			return dyn.Value{}, fmt.Errorf("jsonb: server error %s: %s", code, msg)
		}
	case result.Kind() == dyn.KindVoid:
		return dyn.VoidValue(), nil
	case !parsed.hasResult:
		return dyn.Value{}, fmt.Errorf("jsonb: response for %s carries no result", sig.Name)
	case parsed.misfit != nil:
		return dyn.Value{}, parsed.misfit
	}
	return parsed.result, nil
}

// Binding is the complete JSON/HTTP RMI technology: the server half
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
		ContentTypes: []string{ContentType},
		PathSuffixes: []string{".json"},
		Content:      func(doc string) bool { return strings.Contains(doc, DocFormat) },
	}
}

// Connect builds a live CDE client from the interface-document URL: the
// binding's document parser and Caller under the client cde.ConnectDocs
// builds, which also makes the binding watch-capable.
func (Binding) Connect(ctx context.Context, url string, opts *cde.DialOptions) (*cde.Client, error) {
	var hc *http.Client
	if opts != nil {
		hc = opts.HTTPClient
	}
	return cde.ConnectDocs(ctx, url, opts, cde.DocBinding{
		Technology: Name,
		Compile: func(doc ifsvr.Document) (dyn.InterfaceDescriptor, cde.Caller, error) {
			desc, endpoint, err := ParseDoc(doc.Content)
			if err != nil {
				return dyn.InterfaceDescriptor{}, nil, err
			}
			desc.Version = doc.DescriptorVersion
			return desc, &Caller{Endpoint: endpoint, HTTPClient: hc}, nil
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
