package cde

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	neturl "net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"livedev/internal/backoff"
	"livedev/internal/ifsvr"
)

// DialOptions carries the cross-technology knobs of a Dial. The zero value
// is usable; the livedev facade builds one from functional options.
type DialOptions struct {
	// HTTPClient is used for interface-document fetches and (by HTTP-based
	// bindings) for calls. Nil means a default client.
	HTTPClient *http.Client
	// Timeout, when non-zero, bounds every call made through the resulting
	// client whose context carries no deadline of its own.
	Timeout time.Duration
	// Binding forces the named binding, skipping document sniffing.
	Binding string
	// Watch subscribes the client to push-based interface updates: a
	// watcher holds a streaming watch on the published interface document
	// and installs each new version into the client's view as it is
	// committed, before any call finds the old one stale. Every binding
	// connected through ConnectDocs can be watched.
	Watch bool
	// AuxURL is a binding-specific secondary document URL — the CORBA
	// binding uses it for the stringified IOR when the primary URL is the
	// IDL document (and vice versa). Bindings derive it by path convention
	// when empty.
	AuxURL string
	// Prompt, when non-nil, is installed as the client debugger's hook:
	// it is invoked synchronously for every recorded stale-call exception.
	Prompt func(Exception)
	// Prefetched, when non-nil, is the document already fetched from the
	// primary URL — Dial's sniffing fetch sets it so the chosen
	// connector's client can seed its initial interface compilation
	// instead of re-fetching the same document.
	Prefetched *ifsvr.Document
	// Endpoints lists replica base URLs (a replicated watch plane's
	// leader and followers) serving the same documents as the primary
	// URL. Watch streams rotate to the next endpoint when the current one
	// fails — replica failover, client-side. Since every replica serves
	// the leader's store generation and epochs, the switch is an ordinary
	// reconnect-with-replay, not a restart. Document reads do not rotate:
	// they go to the leader a replica names (DocSource.Fetch).
	Endpoints []string
}

// DocMatch describes how a binding's published interface documents can be
// recognized, so Dial can pick a binding from the document alone.
type DocMatch struct {
	// ContentTypes lists MIME types (without parameters) the binding's
	// interface documents are served with.
	ContentTypes []string
	// PathSuffixes lists URL path suffixes, e.g. ".wsdl", ".idl", ".json".
	PathSuffixes []string
	// Content reports whether the raw document text looks like this
	// binding's interface description — the tie-breaker when types and
	// suffixes are ambiguous.
	Content func(doc string) bool
}

// ConnectFunc builds a live client from an interface-document URL.
type ConnectFunc func(ctx context.Context, url string, opts *DialOptions) (*Client, error)

// Connector is the client half of an RMI-technology binding: how to
// recognize its interface documents and how to connect from one.
type Connector struct {
	// Name is the binding name ("SOAP", "CORBA", "JSON", ...).
	Name string
	// Match describes the binding's interface documents.
	Match DocMatch
	// Connect builds the client.
	Connect ConnectFunc
}

var (
	connMu     sync.RWMutex
	connectors = make(map[string]Connector)
)

// RegisterConnector adds (or replaces) a connector in the process-wide
// registry. It is typically called via livedev.RegisterBinding.
func RegisterConnector(c Connector) {
	if c.Name == "" || c.Connect == nil {
		panic("cde: connector needs a name and a Connect func")
	}
	connMu.Lock()
	connectors[c.Name] = c
	connMu.Unlock()
}

// LookupConnector returns the named connector.
func LookupConnector(name string) (Connector, bool) {
	connMu.RLock()
	defer connMu.RUnlock()
	c, ok := connectors[name]
	return c, ok
}

// ConnectorNames returns the registered binding names, sorted.
func ConnectorNames() []string {
	connMu.RLock()
	names := make([]string, 0, len(connectors))
	for n := range connectors {
		names = append(names, n)
	}
	connMu.RUnlock()
	sort.Strings(names)
	return names
}

// DocSource reads one published interface document, optionally seeded
// with a prefetched copy (Dial's sniffing fetch) that is consumed exactly
// once — clients use it so connection establishment fetches each document
// a single time. Reads go to the leader a replica names; watch streams
// rotate across the replica endpoints. Safe for concurrent use.
type DocSource struct {
	url string
	hc  *http.Client

	// bo paces retries — reads from their first failure, streams once
	// every endpoint in the rotation has failed: capped jittered
	// exponential backoff, reset by the next success, so a client whose
	// endpoints all die makes O(log) dials per second instead of spinning
	// hot. waits counts the sleeps it caused.
	bo    backoff.Backoff
	waits atomic.Uint64

	mu     sync.Mutex
	seed   *ifsvr.Document
	leader string   // the leader a replica named; every later read goes there
	bases  []string // replica endpoints; stream rotation target on failure
	cur    int
}

// NewDocSource returns a source for url. seed may be nil.
func NewDocSource(url string, hc *http.Client, seed *ifsvr.Document) *DocSource {
	return &DocSource{url: url, hc: hc, seed: seed}
}

// SetEndpoints installs the replica endpoint list watch streams rotate
// across (DialOptions.Endpoints). Empty is a no-op: streams stay on the
// source's URL.
func (s *DocSource) SetEndpoints(bases []string) {
	if len(bases) == 0 {
		return
	}
	s.mu.Lock()
	s.bases = append([]string(nil), bases...)
	s.mu.Unlock()
}

// onBase moves url onto base: the path and query stay, the scheme and host
// come from base. A url or base that does not parse, or a base without a
// host, leaves url as it is.
func onBase(url, base string) string {
	u, err := neturl.Parse(url)
	b, berr := neturl.Parse(base)
	if err != nil || berr != nil || b.Host == "" {
		return url
	}
	u.Scheme, u.Host = b.Scheme, b.Host
	return u.String()
}

// streamURL is the document URL on the endpoint the stream rotation is at.
func (s *DocSource) streamURL() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.bases) == 0 {
		return s.url
	}
	return onBase(s.url, s.bases[s.cur%len(s.bases)])
}

// rotation is the number of distinct endpoints a stream failure streak
// must cover before pacing kicks in: a single replica loss fails over
// immediately; pacing starts only once the whole rotation has failed.
func (s *DocSource) rotation() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.bases) > 1 {
		return len(s.bases)
	}
	return 1
}

// pace sleeps out the source's current backoff delay once the failure
// streak has reached after (at least 1). It returns early (with ctx.Err())
// when ctx ends first.
func (s *DocSource) pace(ctx context.Context, after int) error {
	if s.bo.Streak() < after {
		return nil
	}
	s.waits.Add(1)
	t := time.NewTimer(s.bo.Delay())
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Backoffs reports how many backoff sleeps the source has performed —
// each one is a retry that would have been a hot-spin dial without the
// pacing.
func (s *DocSource) Backoffs() uint64 { return s.waits.Load() }

// Fetch returns the seeded document on the first call that finds one, and
// reads the document over HTTP otherwise: from the dialed URL until a
// replica names its leader, from the leader ever after (readLeader). Reads
// do not rotate, so they wait out the backoff from the first failure.
func (s *DocSource) Fetch(ctx context.Context) (ifsvr.Document, error) {
	s.mu.Lock()
	seed, url := s.seed, s.url
	s.seed = nil
	if s.leader != "" {
		url = onBase(url, s.leader)
	}
	s.mu.Unlock()
	if seed != nil {
		return *seed, nil
	}
	if err := s.pace(ctx, 1); err != nil {
		return ifsvr.Document{}, err
	}
	doc, leader, err := readLeader(ctx, docClient(s.hc), url)
	if leader != "" {
		s.mu.Lock()
		s.leader = leader
		s.mu.Unlock()
	}
	switch {
	case err == nil:
		s.bo.Reset()
	case ctx.Err() == nil:
		s.bo.Fail()
	}
	return doc, err
}

// readLeader GETs the document at url. When the answer names a leader —
// url is on a replica — it reads the document once more from the leader,
// same path and query, and returns the leader too: an explicit read never
// installs a replica's view, which may be older than one already in use.
func readLeader(ctx context.Context, hc *http.Client, url string) (ifsvr.Document, string, error) {
	doc, leader, err := ifsvr.FetchLeader(ctx, hc, url)
	if err != nil || leader == "" {
		return doc, "", err
	}
	doc, _, err = ifsvr.FetchLeader(ctx, hc, onBase(url, leader))
	return doc, leader, err
}

// Stream holds one streaming watch on the document, delivering every
// version committed after the given store epoch (replayed catch-up first,
// then live pushes) until ctx ends or the connection breaks. A broken
// stream — an endpoint that does not stream included — rotates the source
// to the next replica endpoint. A stream ended by a server drain rotates
// without counting a failure: the server told us to go, so the reconnect
// to the next replica should be immediate. Only a failure streak that spans
// the whole rotation waits out the backoff before connecting.
func (s *DocSource) Stream(ctx context.Context, afterEpoch uint64, fn func(ifsvr.StreamEvent)) error {
	if err := s.pace(ctx, s.rotation()); err != nil {
		return err
	}
	err := ifsvr.WatchStream(ctx, docClient(s.hc), s.streamURL(), afterEpoch, func(ev ifsvr.StreamEvent) {
		// A delivered event proves the endpoint healthy; the next break
		// starts a fresh failure streak.
		s.bo.Reset()
		fn(ev)
	})
	if ctx.Err() != nil {
		return err
	}
	s.mu.Lock()
	if len(s.bases) > 0 {
		s.cur++
	}
	s.mu.Unlock()
	if !errors.Is(err, ifsvr.ErrStreamDraining) {
		s.bo.Fail()
	}
	return err
}

// Dial builds a live client from a published interface-document URL. Unless
// opts.Binding names a binding explicitly, the document is fetched once and
// each registered connector's DocMatch is scored against it — content type,
// then path suffix, then content sniff — and the best match connects. When
// opts.Timeout is set and ctx carries no deadline of its own, the whole
// connection establishment (sniff fetch, binding connect, initial interface
// fetch) is bounded by it, the same way later calls are.
func Dial(ctx context.Context, url string, opts *DialOptions) (*Client, error) {
	if opts == nil {
		opts = &DialOptions{}
	}
	if opts.Timeout > 0 {
		if _, hasDeadline := ctx.Deadline(); !hasDeadline {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
			defer cancel()
		}
	}
	if opts.Binding != "" {
		c, ok := LookupConnector(opts.Binding)
		if !ok {
			return nil, fmt.Errorf("cde: no binding named %q registered (have %s)",
				opts.Binding, strings.Join(ConnectorNames(), ", "))
		}
		return c.Connect(ctx, url, opts)
	}

	doc, _, err := readLeader(ctx, docClient(opts.HTTPClient), url)
	if err != nil {
		return nil, fmt.Errorf("cde: fetching interface document: %w", err)
	}
	c, err := matchConnector(url, doc)
	if err != nil {
		return nil, err
	}
	// Copy before attaching the document: a caller-owned options struct
	// must not carry this fetch into an unrelated later Dial.
	seeded := *opts
	seeded.Prefetched = &doc
	return c.Connect(ctx, url, &seeded)
}

// matchConnector scores every registered connector against the fetched
// document and returns the unique best match.
func matchConnector(url string, doc ifsvr.Document) (Connector, error) {
	contentType := doc.ContentType
	if i := strings.IndexByte(contentType, ';'); i >= 0 {
		contentType = contentType[:i]
	}
	contentType = strings.TrimSpace(contentType)
	path := url
	if i := strings.IndexByte(path, '?'); i >= 0 {
		path = path[:i]
	}

	connMu.RLock()
	candidates := make([]Connector, 0, len(connectors))
	for _, c := range connectors {
		candidates = append(candidates, c)
	}
	connMu.RUnlock()

	var best Connector
	bestScore, ties := 0, 0
	for _, c := range candidates {
		score := 0
		for _, ct := range c.Match.ContentTypes {
			if strings.EqualFold(ct, contentType) {
				score += 4
				break
			}
		}
		for _, suf := range c.Match.PathSuffixes {
			if strings.HasSuffix(path, suf) {
				score += 2
				break
			}
		}
		if c.Match.Content != nil && c.Match.Content(doc.Content) {
			score++
		}
		switch {
		case score > bestScore:
			best, bestScore, ties = c, score, 1
		case score == bestScore && score > 0:
			ties++
		}
	}
	if bestScore == 0 {
		return Connector{}, fmt.Errorf("cde: no registered binding recognizes the document at %s (content type %q; registered: %s)",
			url, doc.ContentType, strings.Join(ConnectorNames(), ", "))
	}
	if ties > 1 {
		return Connector{}, fmt.Errorf("cde: document at %s is ambiguous between %d bindings; use an explicit binding option",
			url, ties)
	}
	return best, nil
}
