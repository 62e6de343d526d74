package soap

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"livedev/internal/dyn"
	"livedev/internal/ifsvr"
)

// Client posts SOAP requests to one endpoint URL — the transport half of a
// SOAP client stub (paper Figure 1, steps 2 and 3).
type Client struct {
	// Endpoint is the SOAP endpoint URL.
	Endpoint string
	// ServiceNS is the XML namespace RPC calls are made in.
	ServiceNS string
	// HTTPClient is used for transport; a default client with a timeout
	// is used when nil.
	HTTPClient *http.Client
}

// defaultTransport is shared by every Client without an explicit
// HTTPClient: a clone of http.DefaultTransport (keeping its proxy
// environment support and dial/TLS timeouts) with a deep idle pool, so
// repeated RPCs to the same endpoint reuse TCP connections instead of
// re-dialling — the transport half of the invocation hot path.
var defaultTransport = func() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 32
	return t
}()

var defaultHTTPClient = &http.Client{Timeout: 30 * time.Second, Transport: defaultTransport}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return defaultHTTPClient
}

// bodyPool holds reusable buffers for HTTP bodies (responses here, requests
// on the server side): reading a body per call was the largest remaining
// per-call allocation after the envelope work moved to pooled buffers.
var bodyPool = sync.Pool{
	New: func() any { return bytes.NewBuffer(make([]byte, 0, 4<<10)) },
}

// GetBodyBuffer returns a pooled buffer for reading an HTTP body into.
func GetBodyBuffer() *bytes.Buffer {
	b := bodyPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

// PutBodyBuffer recycles a buffer obtained from GetBodyBuffer. Element
// handles parsed from its contents die with it: call it only after the last
// DecodeValue. Decoded dyn values and the Method and Fault strings are
// copies and stay valid.
func PutBodyBuffer(b *bytes.Buffer) {
	// Oversized one-off bodies would pin their memory in the pool forever.
	if b.Cap() > maxPooledRender {
		return
	}
	bodyPool.Put(b)
}

// maxBodyBytes caps a request or response body, as the JSON and h2b
// bindings cap theirs.
const maxBodyBytes = 16 << 20

// ErrBodyTooLarge reports a request or response body over the 16 MiB cap.
var ErrBodyTooLarge = errors.New("soap: message body exceeds 16 MiB")

// ReadBody reads r to its end into buf and fails with ErrBodyTooLarge once
// the body passes the cap, rather than handing on a truncated document. A
// declared length (-1 when unknown) is only a claim, so it buys at most a
// pool-sized buffer up front; past that the buffer grows as bytes arrive.
func ReadBody(buf *bytes.Buffer, r io.Reader, declared int64) error {
	if declared > maxBodyBytes {
		return ErrBodyTooLarge
	}
	if declared > 0 {
		buf.Grow(int(min(declared, maxPooledRender)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(io.LimitReader(r, maxBodyBytes+1))
	if err == nil && buf.Len() > maxBodyBytes {
		err = ErrBodyTooLarge
	}
	return err
}

const contentType = `text/xml; charset="utf-8"`

// writeEnvelope sends one complete envelope: declared length, one Write.
func writeEnvelope(w http.ResponseWriter, status int, env []byte) {
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("Content-Length", strconv.Itoa(len(env)))
	w.WriteHeader(status)
	_, _ = w.Write(env) // the client is gone; nobody to tell
}

// WriteResponse renders the response envelope for result and sends it as
// the HTTP 200 reply, straight from a pooled buffer. On an encoding error
// nothing has been written.
func WriteResponse(w http.ResponseWriter, serviceNS, method string, result dyn.Value) error {
	bp := getRenderBuf()
	buf, err := appendResponse((*bp)[:0], serviceNS, method, result)
	if err == nil {
		writeEnvelope(w, http.StatusOK, buf)
	}
	putRenderBuf(bp, buf)
	return err
}

// WriteFault sends a SOAP fault with HTTP 500, per SOAP 1.1 over HTTP, and
// the counters of the interface document it carries, if any.
func WriteFault(w http.ResponseWriter, f *Fault) {
	if f.Interface != nil {
		ifsvr.DocHeaders(*f.Interface, w.Header().Set)
	}
	bp := getRenderBuf()
	buf := appendFault((*bp)[:0], f)
	writeEnvelope(w, http.StatusInternalServerError, buf)
	putRenderBuf(bp, buf)
}

// CallContext performs one RPC: it builds the request envelope, POSTs it,
// parses the response, and decodes the result against resultType. SOAP
// faults are returned as *Fault errors. Cancelling ctx aborts the in-flight
// HTTP round-trip and returns an error wrapping ctx.Err().
func (c *Client) CallContext(ctx context.Context, method string, params []NamedValue, resultType *dyn.Type) (dyn.Value, error) {
	bp := getRenderBuf()
	env, err := appendRequest((*bp)[:0], c.ServiceNS, method, params)
	// The transport may go on reading a request body after Do returns (a
	// reply that overtakes the upload), so it gets bytes of its own.
	var payload []byte
	if err == nil {
		payload = append(payload, env...)
	}
	putRenderBuf(bp, env)
	if err != nil {
		return dyn.Value{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Endpoint, bytes.NewReader(payload))
	if err != nil {
		return dyn.Value{}, fmt.Errorf("soap: building HTTP request: %w", err)
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set("SOAPAction", strconv.Quote(c.ServiceNS+"#"+method))

	resp, err := c.httpClient().Do(req)
	if err != nil {
		return dyn.Value{}, fmt.Errorf("soap: posting to %s: %w", c.Endpoint, err)
	}
	defer func() { _ = resp.Body.Close() }()
	// The parsed response's handles alias buf, which goes back to the pool
	// when this function returns: the decoded result and the fault strings
	// are copies.
	buf := GetBodyBuffer()
	defer PutBodyBuffer(buf)
	if err := ReadBody(buf, resp.Body, resp.ContentLength); err != nil {
		return dyn.Value{}, fmt.Errorf("soap: reading response (HTTP %d): %w", resp.StatusCode, err)
	}
	// SOAP 1.1 faults come back with HTTP 500; parse the envelope either way.
	parsed, err := ParseResponse(buf.Bytes())
	if err != nil {
		if resp.StatusCode != http.StatusOK {
			return dyn.Value{}, fmt.Errorf("soap: HTTP %d from %s", resp.StatusCode, c.Endpoint)
		}
		return dyn.Value{}, err
	}
	if f := parsed.Fault; f != nil {
		if text, ok := parsed.detail.childText("interface"); ok {
			if doc, ok := ifsvr.CarriedDoc(text, resp.Header.Get); ok {
				f.Interface = &doc
			}
		}
		return dyn.Value{}, f
	}
	if resultType == nil || resultType.Kind() == dyn.KindVoid {
		return dyn.VoidValue(), nil
	}
	if parsed.Return == nil {
		return dyn.Value{}, fmt.Errorf("soap: response for %s carries no return element", method)
	}
	return DecodeValue(parsed.Return, resultType)
}
