package ifsvr

import "net/http"

// Cleartext HTTP/2 (h2c) on the serving side.
//
// The watch plane's scaling story is many held streams from few client
// processes: SSE watch streams and the h2b binding's multiplexed CDR
// calls all want to share one TCP connection per client-server pair
// instead of one per stream. Go 1.24's net/http can
// serve unencrypted HTTP/2 natively (Server.Protocols), sniffing the h2
// client preface per connection, so HTTP/1.1 clients keep working on the
// same listener — no TLS requirement, no second port, no new dependency.

// H2CHeader is the response header an h2c-capable listener sets on its
// HTTP/1.1 responses, advertising that the same origin accepts
// prior-knowledge cleartext HTTP/2 — the Alt-Svc idea, scoped to this
// system. Clients start a new host on HTTP/1.1 (always safe) and switch
// to h2c once they see the advertisement; probing with an h2 preface
// instead would reach an HTTP/1.1-only server as a junk "PRI *" request,
// which its handler observes, and replayable-request semantics forbid a
// transport making handlers see requests that never logically happened.
const H2CHeader = "X-H2C"

// H2CSupported is the H2CHeader value an h2c-capable listener sends.
const H2CSupported = "supported"

// EnableH2C configures srv to accept cleartext HTTP/2 alongside HTTP/1.1
// on the same listener, with the stream and flow-control budgets sized for
// the watch plane: enough concurrent streams that one client process can
// hold hundreds of watches (or in-flight h2b calls) on one connection, and
// per-stream receive windows that don't stall interface-document-sized
// bodies. Both the Interface Server and the Manager's shared HTTP endpoint
// server run through this, so every binding mounted on either listener is
// reachable over h2c with HTTP/1.1 fallback for free. HTTP/1.1 responses
// gain the H2CHeader advertisement so upgrading clients find the h2c path.
// Call it after srv.Handler is set.
func EnableH2C(srv *http.Server) {
	var p http.Protocols
	p.SetHTTP1(true)
	p.SetUnencryptedHTTP2(true)
	srv.Protocols = &p
	srv.HTTP2 = &http.HTTP2Config{
		// One client process may hold many watch streams plus a burst of
		// concurrent h2b calls on a single connection.
		MaxConcurrentStreams: 512,
		// Generous connection- and stream-level receive windows: interface
		// documents and CDR call bodies are small, but a replay burst after
		// reconnect delivers many of them back to back.
		MaxReceiveBufferPerConnection: 1 << 20,
		MaxReceiveBufferPerStream:     1 << 18,
	}
	if next := srv.Handler; next != nil {
		srv.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.ProtoMajor < 2 {
				w.Header().Set(H2CHeader, H2CSupported)
			}
			next.ServeHTTP(w, r)
		})
	}
}
