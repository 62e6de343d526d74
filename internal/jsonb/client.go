package jsonb

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"livedev/internal/cde"
	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/h1"
	"livedev/internal/ifsvr"
)

// Caller posts calls to one endpoint URL — the transport half of a JSON
// client stub (the analogue of soap.Client).
type Caller struct {
	// Endpoint is the JSON-POST endpoint URL.
	Endpoint string
	// HTTPClient, when set, carries the calls, with its own timeouts,
	// proxy and TLS settings; nil means h1.Post's direct client.
	HTTPClient *http.Client
}

// Call performs one RPC against sig. A "non-existent method" reply is a
// *cde.StaleReply, an application error a *cde.AppError. Cancelling ctx
// aborts the in-flight HTTP round-trip and returns an error wrapping
// ctx.Err().
func (c *Caller) Call(ctx context.Context, sig dyn.MethodSig, args []dyn.Value) (dyn.Value, error) {
	var v dyn.Value
	err := h1.Exchange(ctx, c.HTTPClient, c.Endpoint, func(body []byte, header [][2]string) ([]byte, [][2]string, error) {
		body, err := appendRequest(body, sig.Name, args)
		return body, append(header, [2]string{"Content-Type", ContentType}), err
	}, func(r h1.Reply) (err error) {
		v, err = decodeReply(sig, r)
		return err
	})
	return v, err
}

// decodeReply reads the reply to a call against sig. Nothing it returns
// aliases r's buffer, which the exchange recycles.
func decodeReply(sig dyn.MethodSig, r h1.Reply) (dyn.Value, error) {
	result := sig.Result
	if result == nil {
		result = dyn.Void
	}
	cd := getCodec()
	defer putCodec(cd)
	cd.reset(r.Body)
	parsed, err := cd.parseReply(result)
	if err != nil {
		return dyn.Value{}, fmt.Errorf("jsonb: reading response (HTTP %d): %w", r.Status, err)
	}
	switch {
	case parsed.failed:
		code, msg := parsed.failure.Index(0).Str(), parsed.failure.Index(1).Str()
		switch code {
		case CodeNonExistentMethod:
			stale := &cde.StaleReply{Err: errors.New("jsonb: non-existent method: " + msg)}
			if parsed.iface != nil {
				if doc, ok := ifsvr.CarriedDoc(string(parsed.iface), r.Header); ok {
					stale.Doc = &doc
				}
			}
			return dyn.Value{}, stale
		case CodeApplication:
			return dyn.Value{}, &cde.AppError{Message: msg}
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
		Compile: func(doc ifsvr.Document, base string) (dyn.InterfaceDescriptor, cde.Caller, error) {
			desc, endpoint, err := ParseDoc(doc.Content)
			if err != nil {
				return dyn.InterfaceDescriptor{}, nil, err
			}
			desc.Version = doc.DescriptorVersion
			return desc, &Caller{Endpoint: cde.ResolveAddr(endpoint, base), HTTPClient: hc}, nil
		},
	})
}

// Connector returns the client half as a cde.Connector, for callers wiring
// the registries directly rather than through livedev.RegisterBinding.
func Connector() cde.Connector {
	b := Binding{}
	return cde.Connector{Name: Name, Match: b.Describe(), Connect: b.Connect}
}
