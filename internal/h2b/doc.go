// Package h2b is the multiplexed binary binding for the SDE/CDE: dynamic
// classes called with CDR-encoded bodies over HTTP. It is the
// performance-motivated fourth binding — where jsonb proves the binding
// seam is real, h2b proves it is fast: calls reuse the CORBA binding's
// pooled CDR encoders and zero-copy decoder reads (no per-call JSON/XML
// boxing), and the transport is one long-lived TCP connection per
// endpoint with concurrent calls riding concurrent HTTP/2 streams of the
// purpose-built h2x engine (the document's mux_endpoint), so a parallel
// caller never queues behind a connection the way HTTP/1.1 keep-alive
// forces. The document's endpoint carries the same calls as plain HTTP
// POSTs on the manager's shared listener, for clients without the engine.
//
// Wire protocol: POST the CDR-encoded arguments (in signature order,
// jointly forming one CDR stream) to the endpoint with Content-Type
// "application/x-livedev-cdr", the method name in X-H2B-Method, and the
// byte order in X-H2B-Order ("big" or "little"). A 200 reply carries the
// CDR-encoded result with its own X-H2B-Order; an error reply carries the
// code in X-H2B-Error and a plain-text message, using the same codes and
// statuses as the JSON binding. There is no binding-level framing beyond
// this: HTTP's own framing delimits calls; on the fast path HTTP/2 stream
// flow control bounds bodies and cancellation is an RST_STREAM, on the
// plain POST it is a closed connection (the server observes either as the
// request context ending).
//
// The error code "non-existent-method" carries the Section 5.7 guarantee:
// by the time the client sees it, the published interface document is
// current.
//
// The interface document is the JSON binding's machine-readable document
// grammar with this binding's format tag, so `cde.Dial` sniffing
// distinguishes the two by content type, path suffix, and format string
// without either binding scoring on the other's documents.
package h2b

import (
	"fmt"

	"livedev/internal/cdr"
	"livedev/internal/dyn"
	"livedev/internal/jsonb"
)

// Name is the binding's registered technology name.
const Name = "H2B"

// DocFormat identifies the interface-document format (and its version).
const DocFormat = "livedev-h2b-binding/v1"

// DocContentType is the MIME type interface documents are served with.
// The +json suffix keeps them readable by generic tooling while the
// vendor tree keeps Dial sniffing unambiguous against the JSON binding.
const DocContentType = "application/vnd.livedev.h2b+json"

// CallContentType is the MIME type of request and reply bodies.
const CallContentType = "application/x-livedev-cdr"

// Wire headers.
const (
	// MethodHeader names the invoked method on a call request.
	MethodHeader = "X-H2B-Method"
	// OrderHeader declares the CDR byte order of the attached body.
	OrderHeader = "X-H2B-Order"
	// ErrorHeader carries the error code on a failed call's reply.
	ErrorHeader = "X-H2B-Error"
)

// The same wire headers in the lowercase form HTTP/2 field names take on
// the fast-path (h2x) transport.
const (
	muxMethodHeader = "x-h2b-method"
	muxOrderHeader  = "x-h2b-order"
	muxErrorHeader  = "x-h2b-error"
)

// muxCallPath is the :path fast-path calls are sent with. The dedicated
// listener serves exactly one class, so routing is by connection, not
// path; the constant keeps the wire form stable for protocol tooling.
const muxCallPath = "/h2b"

// OrderHeader values.
const (
	OrderBig    = "big"
	OrderLittle = "little"
)

// Wire-protocol error codes — the same vocabulary as the JSON binding.
const (
	// CodeNonExistentMethod is the binding's "Non Existent Method": the
	// Section 5.7 protocol guarantees the published interface document is
	// current by the time a client reads it.
	CodeNonExistentMethod = "non-existent-method"
	// CodeNotInitialized reports a call before the instance exists.
	CodeNotInitialized = "not-initialized"
	// CodeMalformed reports an unparseable request.
	CodeMalformed = "malformed-request"
	// CodeApplication wraps an error returned by the method body.
	CodeApplication = "application-error"
)

// orderValue renders a CDR byte order as its wire-header value.
func orderValue(o cdr.ByteOrder) string {
	if o == cdr.LittleEndian {
		return OrderLittle
	}
	return OrderBig
}

// parseOrder reads an OrderHeader value; the empty string means big-endian
// (CDR's flag-octet default).
func parseOrder(v string) (cdr.ByteOrder, error) {
	switch v {
	case OrderBig, "":
		return cdr.BigEndian, nil
	case OrderLittle:
		return cdr.LittleEndian, nil
	default:
		return cdr.BigEndian, fmt.Errorf("h2b: unknown byte order %q", v)
	}
}

// GenerateDoc renders the interface document for desc served at endpoint.
// The document is the JSON binding's grammar under this binding's format
// tag — the struct table, method list, and endpoint field are identical,
// so the two bindings share one document codec and one stub compiler. mux,
// when non-empty, is the "host:port" of the dedicated multiplexed fast-path
// listener and is published as the document's "mux_endpoint" field; clients
// without fast-path support ignore the extra key, and documents without it
// fall back to the HTTP endpoint.
func GenerateDoc(desc dyn.InterfaceDescriptor, endpoint, mux string) (string, error) {
	return jsonb.GenerateDocAs(DocFormat, desc, endpoint, mux)
}

// ParseDoc compiles an interface document into a descriptor, the
// advertised HTTP call endpoint, and the fast-path mux endpoint (empty
// when the document does not advertise one) — the binding's stub
// compiler.
func ParseDoc(text string) (dyn.InterfaceDescriptor, string, string, error) {
	desc, endpoint, mux, err := jsonb.ParseDocAs(DocFormat, text)
	if err != nil {
		return dyn.InterfaceDescriptor{}, "", "", fmt.Errorf("h2b: %w", err)
	}
	return desc, endpoint, mux, nil
}
