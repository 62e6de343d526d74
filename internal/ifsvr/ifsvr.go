// Package ifsvr implements the paper's Interface Server: "a simple HTTP
// server that publishes the WSDL documents to the public domain"
// (Section 5.1) — and, shared by the CORBA subsystem for simplicity
// (Section 5.2), the CORBA-IDL documents and IORs as well. Documents are
// versioned; every response carries the document's version in the
// X-Interface-Version header, which is what lets the CDE observe the
// recency guarantees of Sections 5.7 and 6.
//
// The server is a read view over the journaled publication Store in this
// package, which the SDE Manager shares with every binding and publishes
// through. The view adds the watch plane: a streaming GET
// with "?watch=stream&after=N" holds one text/event-stream connection per
// watcher, serving the journal replay of everything committed after epoch
// N followed by live fan-out. See docs/watch-protocol.md for the wire
// protocol.
package ifsvr

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"livedev/internal/h1"
)

// VersionHeader carries the published document version (publish count) on
// HTTP responses.
const VersionHeader = "X-Interface-Version"

// DescriptorVersionHeader carries the interface-descriptor version the
// document was generated from — the monotone version the Section 6 recency
// guarantee is stated over.
const DescriptorVersionHeader = "X-Descriptor-Version"

// EpochHeader carries the backing store's publication epoch at which the
// document was committed (0 for stores that do not number epochs).
const EpochHeader = "X-Interface-Epoch"

// GenerationHeader carries the backing store's restart generation — a
// nonzero value identifying the store incarnation serving the response.
// It is what lets a watch client distinguish "same server whose journal
// evicted my epoch" (snapshot event, unchanged generation) from "a new
// server" (generation change; the new server additionally lost the old
// state when its epoch regressed). Absent on servers predating it.
const GenerationHeader = "X-Store-Generation"

// LeaderHeader carries, on a replica's document GETs only, the base URL of
// the leader the replica follows (Server.LeaderURL, the name its 421s put in
// Location). A client reads documents there: the leader's are never older
// than a replica's. A leader sends no such header.
const LeaderHeader = "X-Interface-Leader"

// StatsPath is the reserved path serving the store's counters as JSON
// (StoreStats, including the Durability block on durable stores). It
// exists for operational introspection — ifdump -stats and the SIGQUIT
// dump read the same numbers.
const StatsPath = "/.stats"

// ErrNotFound reports a fetch of a never-published document.
var ErrNotFound = errors.New("ifsvr: document not published")

// Document is one published interface description.
type Document struct {
	// Content is the document text (WSDL, IDL, or stringified IOR).
	Content string
	// Version increments with each publication of this path.
	Version uint64
	// DescriptorVersion is the interface-descriptor version the document
	// was generated from (0 for unversioned documents such as IORs).
	DescriptorVersion uint64
	// Epoch is the backing store's commit epoch for this document (0 when
	// the store does not number epochs).
	Epoch uint64
	// Generation is the serving store's restart generation. It is filled
	// on documents fetched over HTTP (from GenerationHeader); 0 means the
	// server predates the header. The store does not record it per
	// document — an incarnation serves every document under one value.
	Generation uint64
	// ContentType is the MIME type served.
	ContentType string
}

// Server is the Interface Server: an HTTP read view over a Store
// (NewView). Publications go to the store; Start serves its documents and
// watch streams on internal/h1, the HTTP/1.1 server calls are served on.
type Server struct {
	store *Store

	// HeartbeatInterval paces the liveness comments of idle streaming
	// watches (0 means DefaultHeartbeat). Set it before Start.
	HeartbeatInterval time.Duration

	// MaxWatcherLag bounds how many committed-but-undelivered events a
	// streaming watcher may have pending before its stream is evicted with
	// a terminal "eviction" event (the client reconnects through the
	// ordinary replay path). 0 disables the budget: a laggard is then
	// bounded only by the journal capacity (snapshot-reset past the floor)
	// and the write deadline. Set it before Start.
	MaxWatcherLag int

	// StreamWriteTimeout bounds each batch written to a held stream
	// (events, heartbeats): a peer that cannot absorb one within it is
	// evicted instead of pinning the connection's delivery pump. 0 means
	// DefaultStreamWriteTimeout; negative disables the deadline. Set it
	// before Start.
	StreamWriteTimeout time.Duration

	// LeaderURL, when set, marks this server a read-only replica fronting
	// a replication follower: non-GET requests are answered with
	// 421 Misdirected Request and a Location header naming the leader,
	// where publications belong, and document GETs name it in
	// LeaderHeader. Set it before Start.
	LeaderURL string

	// drainCtx is cancelled when a graceful Shutdown begins: held streams
	// end with a terminal "draining" frame so clients reconnect to another
	// replica.
	drainCtx    context.Context
	drainCancel context.CancelFunc

	srv     *h1.Server
	baseURL string
}

// NewView returns an interface server that serves the given store — the
// read-view arrangement the SDE Manager uses with the publication core.
func NewView(store *Store) *Server {
	s := &Server{store: store}
	s.drainCtx, s.drainCancel = context.WithCancel(context.Background())
	return s
}

// Store returns the store the server reads from.
func (s *Server) Store() *Store { return s.store }

// Draining reports whether a graceful Shutdown has begun.
func (s *Server) Draining() bool { return s.drainCtx.Err() != nil }

// ServeHTTP implements http.Handler: GET returns the document with its
// version headers. With "?watch=stream&after=N" the request becomes a
// server-sent-event stream: journal replay of everything committed after
// epoch N, then one event per live commit, on a single held connection
// (see stream.go); on AllPath, of every path (repl.go). Any other query is
// ignored. HEAD answers as GET does without the body, and never holds a
// stream.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		if s.LeaderURL != "" {
			// A replica does not take writes: misdirect the request to the
			// leader, whose address rides in Location.
			w.Header().Set("Location", s.LeaderURL+r.URL.RequestURI())
			http.Error(w, "read-only replica; publish to the leader at "+s.LeaderURL,
				http.StatusMisdirectedRequest)
			return
		}
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if r.URL.Path == StatsPath {
		s.serveStats(w)
		return
	}
	q := r.URL.Query()
	if r.Method == http.MethodGet && q.Get("watch") == "stream" {
		s.serveStream(w, r, q)
		return
	}
	d, err := s.store.Get(r.URL.Path)
	if err != nil {
		http.NotFound(w, r)
		return
	}
	d.Generation = s.store.Generation()
	if s.LeaderURL != "" {
		w.Header().Set(LeaderHeader, s.LeaderURL)
	}
	writeDoc(w, d)
}

func (s *Server) serveStats(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.store.Stats())
}

// writeDoc answers a GET or HEAD with d. Its declared length keeps the
// header's place in the head, before Date.
func writeDoc(w http.ResponseWriter, d Document) {
	h := w.Header()
	h.Set("Content-Type", d.ContentType)
	h.Set("Content-Length", strconv.Itoa(len(d.Content)))
	DocHeaders(d, h.Set)
	_, _ = io.WriteString(w, d.Content)
}

// MaxCarriedDoc bounds the document a "Non Existent Method" reply carries,
// on every binding (docs/watch-protocol.md, "Stale replies carry the
// document"): a server leaves a larger document out of the reply, a client
// refuses one, and either way the client fetches it instead. Transports
// must read a stale reply's body up to this size without cutting it.
const MaxCarriedDoc = 64 << 10

// DocHeaders calls set once for each of the four counters of d, under the
// header names a document GET answers with. A stale reply that carries d
// sends the same four.
func DocHeaders(d Document, set func(name, value string)) {
	set(VersionHeader, strconv.FormatUint(d.Version, 10))
	set(DescriptorVersionHeader, strconv.FormatUint(d.DescriptorVersion, 10))
	set(EpochHeader, strconv.FormatUint(d.Epoch, 10))
	set(GenerationHeader, strconv.FormatUint(d.Generation, 10))
}

// CarriedDoc rebuilds the document a stale reply carried from its text and
// the headers get looks up by the names DocHeaders sets. It reports false
// unless all four counters are there as decimal numbers.
func CarriedDoc(content string, get func(name string) string) (Document, bool) {
	d := Document{Content: content}
	for _, c := range [...]struct {
		name string
		dst  *uint64
	}{
		{VersionHeader, &d.Version},
		{DescriptorVersionHeader, &d.DescriptorVersion},
		{EpochHeader, &d.Epoch},
		{GenerationHeader, &d.Generation},
	} {
		v, err := strconv.ParseUint(get(c.name), 10, 64)
		if err != nil {
			return Document{}, false
		}
		*c.dst = v
	}
	return d, true
}

// Start begins serving over HTTP on addr ("127.0.0.1:0" for an ephemeral
// port) and returns the base URL, e.g. "http://127.0.0.1:41234".
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("ifsvr: listen %s: %w", addr, err)
	}
	s.baseURL = "http://" + ln.Addr().String()
	s.srv = h1.Serve(ln, s)
	return s.baseURL, nil
}

// BaseURL returns the server's base URL ("" before Start).
func (s *Server) BaseURL() string { return s.baseURL }

// Shutdown drains the server: held streams end with a terminal "draining"
// frame so their clients reconnect elsewhere, the listener stops
// accepting, and requests in flight run to completion, bounded by ctx.
// Before Start, it only marks the server draining.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainCancel() // held streams end with a terminal "draining" frame
	if s.srv == nil {
		return nil
	}
	return s.srv.Shutdown(ctx)
}

// Close closes the listener and every connection, held streams' too (no-op
// before Start). The store is not closed — its owner is.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// maxDocBytes bounds one fetched interface document.
const maxDocBytes = 16 << 20

// FetchContext retrieves a document over HTTP — the client-side counterpart
// used by the CDE. Cancelling ctx aborts the round-trip. A document over
// maxDocBytes is refused, not cut at the limit and handed on as if whole.
func FetchContext(ctx context.Context, client *http.Client, url string) (Document, error) {
	doc, _, err := FetchLeader(ctx, client, url)
	return doc, err
}

// FetchLeader is FetchContext that also returns the answer's LeaderHeader:
// the leader's base URL when url is on a replica, "" otherwise.
func FetchLeader(ctx context.Context, client *http.Client, url string) (Document, string, error) {
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return Document{}, "", fmt.Errorf("ifsvr: building request for %s: %w", url, err)
	}
	resp, err := client.Do(req)
	if err != nil {
		return Document{}, "", fmt.Errorf("ifsvr: fetching %s: %w", url, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		// An HTTP/1.1 connection goes back to the keep-alive pool only
		// once its body is read to the end; error bodies are a line of
		// text, so drain a bounded amount rather than redial next time.
		_, _ = io.CopyN(io.Discard, resp.Body, 4<<10)
		return Document{}, "", fmt.Errorf("ifsvr: fetching %s: HTTP %d", url, resp.StatusCode)
	}
	data, err := readDoc(resp)
	if err != nil {
		return Document{}, "", fmt.Errorf("ifsvr: reading %s: %w", url, err)
	}
	if len(data) > maxDocBytes {
		return Document{}, "", fmt.Errorf("ifsvr: fetching %s: document exceeds the %d MiB limit", url, maxDocBytes>>20)
	}
	return Document{
		Content:           string(data),
		Version:           headerUint(resp, VersionHeader),
		DescriptorVersion: headerUint(resp, DescriptorVersionHeader),
		Epoch:             headerUint(resp, EpochHeader),
		Generation:        headerUint(resp, GenerationHeader),
		ContentType:       resp.Header.Get("Content-Type"),
	}, resp.Header.Get(LeaderHeader), nil
}

// readDoc reads a document body of at most maxDocBytes+1 octets into one
// buffer sized from its declared length, so a body that is as long as it
// claims needs no regrowth and the final EOF read finds room.
func readDoc(resp *http.Response) ([]byte, error) {
	size := int64(512)
	if resp.ContentLength >= 0 {
		size = min(resp.ContentLength, maxDocBytes) + 1
	}
	data := make([]byte, 0, size)
	r := io.LimitReader(resp.Body, maxDocBytes+1)
	for {
		n, err := r.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err == io.EOF {
			return data, nil
		}
		if err != nil {
			return data, err
		}
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
	}
}

func headerUint(resp *http.Response, name string) uint64 {
	v, _ := strconv.ParseUint(strings.TrimSpace(resp.Header.Get(name)), 10, 64)
	return v
}
