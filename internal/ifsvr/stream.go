package ifsvr

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// The streaming watch transport.
//
// A watcher holds ONE connection, whatever the commit rate: a GET with
// "?watch=stream&after=N" is answered with a text/event-stream that first
// replays every version committed after epoch N still in the store's
// journal (catch-up without a document refetch), then carries one event per
// live commit, with comment heartbeats while idle. When the journal no
// longer covers the client's epoch, the stream opens with one full-snapshot
// event instead — the bounded fallback.
//
// Each held connection is served by the delivery pump (pump.go), fed by a
// streamSource: SSE frames over the store's epoch journal, with the two
// valves that are this plane's own — a cursor the journal no longer covers
// gets a mid-stream snapshot reset, and a backlog past the server's lag
// budget ends the stream with a terminal "eviction" event. Either way the
// client reconnects through ordinary replay.

// StreamContentType is the MIME type of the streaming watch response.
const StreamContentType = "text/event-stream"

// DefaultHeartbeat is how often an idle stream carries a liveness comment.
const DefaultHeartbeat = 15 * time.Second

// ErrStreamUnsupported reports a server that answered a streaming watch
// with something other than an event stream — typically the plain
// document, from a server that ignores the watch query. To a watch client
// it is a stream error like any other: back off, fail over.
var ErrStreamUnsupported = errors.New("ifsvr: server does not support the streaming watch transport")

// ErrStreamEvicted reports a streaming watch the server terminated for
// backpressure: the client fell past the server's lag budget and was
// dropped with a terminal "eviction" event. Reconnecting with the last
// seen epoch rides the ordinary replay path (or its snapshot fallback),
// so the right response is the same reconnect loop as any broken stream —
// the error exists so clients can count the evictions they caused.
var ErrStreamEvicted = errors.New("ifsvr: stream evicted by server backpressure")

// ErrStreamDraining reports a streaming watch the server ended with a
// terminal "draining" event because it is shutting down gracefully. The
// stream's cursors are intact; the right response is an immediate
// reconnect against another replica (the watch client's endpoint rotation
// does exactly that), not a backoff — the server told us to go, we did
// not fail.
var ErrStreamDraining = errors.New("ifsvr: stream ended by server drain")

// StreamEvent is one event of a streaming watch, as seen by the client.
type StreamEvent struct {
	// Doc is the committed (or snapshotted) document. Its Generation field
	// carries the serving store's restart generation (from the stream
	// response headers; 0 against servers predating it).
	Doc Document
	// Replayed marks a version served from the store journal during
	// (re)connect catch-up rather than live fan-out.
	Replayed bool
	// Snapshot marks the full-document fallback: the journal no longer
	// covered the client's epoch — or, on a generation change, the client
	// was ahead of a restarted store that lost the old state — so this is
	// the current document, not a step of the committed history.
	Snapshot bool
}

// streamWire is the JSON payload of one SSE data line.
type streamWire struct {
	Path              string `json:"path"`
	Version           uint64 `json:"version"`
	DescriptorVersion uint64 `json:"descriptor_version"`
	Epoch             uint64 `json:"epoch"`
	ContentType       string `json:"content_type,omitempty"`
	Content           string `json:"content,omitempty"`
}

// pumpConfig resolves the server's held-stream policy: the heartbeat
// interval, the per-batch write deadline, the shared sweep (lazily built,
// ticking at half the heartbeat interval), and the drain signal.
func (s *Server) pumpConfig(st *Store) PumpConfig {
	hb := s.HeartbeatInterval
	if hb <= 0 {
		hb = DefaultHeartbeat
	}
	wt := s.StreamWriteTimeout
	switch {
	case wt == 0:
		wt = DefaultStreamWriteTimeout
	case wt < 0:
		wt = 0
	}
	s.sweepMu.Lock()
	if s.sweep == nil {
		s.sweep = NewPumpSweep(hb / 2)
	}
	sweep := s.sweep
	s.sweepMu.Unlock()
	return PumpConfig{
		WriteTimeout: wt,
		Heartbeat:    hb,
		Sweep:        sweep,
		Drain:        s.drainCtx.Done(),
		Counters:     &st.fanout.pump,
	}
}

// serveStream answers "?watch=stream&after=N": an SSE stream of committed
// versions of the requested path — journal replay past epoch N (or one
// snapshot event when the journal fell behind), then live commits, with
// comment heartbeats while idle. The connection is held until the client
// goes away, the store closes, or the server drains.
func (s *Server) serveStream(w http.ResponseWriter, r *http.Request, q url.Values) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	after, _ := strconv.ParseUint(q.Get("after"), 10, 64)
	st := s.store
	gen := st.Generation()

	h := w.Header()
	h.Set("Content-Type", StreamContentType)
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no") // do not let proxies buffer the stream
	if r.ProtoMajor == 1 {
		// The stream ends when the connection does, so it needs no chunk
		// framing (the SSE specification's own advice), and without it
		// net/http hands a frame larger than its 4 KB connection buffer to
		// the socket in one write instead of three.
		h.Set("Transfer-Encoding", "identity")
	}
	// The restart generation, readable before the first event (the client's
	// restart detector compares it across reconnects), and the store-wide
	// epoch at connect.
	h.Set(GenerationHeader, strconv.FormatUint(gen, 10))
	h.Set(EpochHeader, strconv.FormatUint(st.Epoch(), 10))
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	st.fanout.streams.Add(1)
	// Register the wake BEFORE the first collect: a commit landing between
	// the two must nudge the pump, not vanish.
	p := NewPump()
	cancel := st.watchPath(r.URL.Path, p.wake)
	defer cancel()
	p.Run(w, r, s.pumpConfig(st), &streamSource{
		st:        st,
		path:      r.URL.Path,
		gen:       gen,
		budget:    s.MaxWatcherLag,
		lastEpoch: after,
	})
}

// streamSource feeds one SSE stream's pump from the store journal. Its
// cursor is always one committed document of the path — the last one
// delivered — as (lastVer, lastEpoch): the epoch says where in the journal
// to look, the version says whether what is found there is complete (a
// path's versions are contiguous, so the count of pending entries must
// close the gap to the current version). It never advances to the
// store-wide epoch: that names no document of the path, so nothing could
// check the journal's entries against it, and the cursor would stop being
// the value the client holds and sends back as after= on a reconnect —
// live wakes and reconnects read the journal the same way.
type streamSource struct {
	st     *Store
	path   string
	gen    uint64 // the generation the stream opened under
	budget int    // Server.MaxWatcherLag

	lastVer, lastEpoch uint64
	// live is set once the connect-time catch-up has run; parked marks a
	// stream that connected to a not (yet) published path.
	live, parked bool
	events       []StoreEvent // reused across wakes
	frame        []byte       // reused across events
}

// Collect implements PumpSource. The first call is the connect-time
// catch-up ("replay" events, or the snapshot fallback); later calls
// deliver live commits as "version" events, with explicit backpressure:
//
//   - the journal no longer holds every version past the cursor → one
//     mid-stream "snapshot" of the current document (FanoutStats.Resets);
//   - more than Server.MaxWatcherLag events pending → terminal "eviction"
//     event and disconnect (FanoutStats.Evictions).
func (src *streamSource) Collect(w io.Writer) bool {
	st := src.st
	v := st.pumpCollect(src.path, src.lastEpoch, src.lastVer, src.events)
	src.events = v.events
	if v.closed || v.gen != src.gen {
		// The store closed, or adopted a new generation mid-stream (a
		// replica that reset after its leader restarted): everything sent
		// describes the dead incarnation, so end the stream — the client
		// reconnects and reads the new generation header.
		return false
	}
	connecting := !src.live
	src.live = true
	n := 0
	switch {
	case v.cur.Version <= src.lastVer:
		// Nothing committed past the cursor: an idle sweep wake, or a
		// path that is not (yet) published — hold the stream open.
		src.parked = src.parked || connecting
		return true
	case src.parked:
		// First publication of a path the stream parked on. The journal
		// may hold a retired predecessor's history under this path, so
		// serve the current document directly instead of replaying.
		src.parked = false
		src.emit(w, "version", v.cur, nil)
		n = 1
	case connecting && v.cur.Epoch <= src.lastEpoch:
		// The client is current. If it is ahead of the whole store it
		// watched an incarnation this store does not have: the snapshot
		// (with the generation header) is its restart signal.
		if src.lastEpoch > v.epoch {
			src.emit(w, "snapshot", v.cur, nil)
			n = 1
		}
	case !v.complete:
		// The bounded catch-up history is gone: reset the stream from the
		// current document instead of buffering the gap.
		if !connecting {
			st.fanout.resets.Add(1)
		}
		src.emit(w, "snapshot", v.cur, nil)
		n = 1
	case !connecting && src.budget > 0 && len(v.events) > src.budget:
		// Lag budget exceeded: hand the peer the terminal event and
		// disconnect — it reconnects through ordinary replay (or its
		// snapshot fallback) and catches up at its own pace without
		// holding journal history for everyone else.
		st.fanout.pump.Evictions.Add(1)
		fmt.Fprintf(w, "event: eviction\ndata: {\"pending\":%d,\"budget\":%d}\n\n", len(v.events), src.budget)
		return false
	default:
		event := "version"
		if connecting {
			event = "replay"
		}
		for _, ev := range v.events {
			src.emit(w, event, ev.Doc, ev.Payload)
		}
		n = len(v.events)
	}
	src.lastVer, src.lastEpoch = v.cur.Version, v.cur.Epoch
	if n > 0 {
		st.fanout.noteBatch(n)
	}
	return true
}

// emit writes one SSE event. Committed versions arrive with their
// commit-time shared payload (the same bytes every watcher gets and the
// WAL carries); payload==nil marshals per connection (snapshots). The
// framing is hand-appended into a reused buffer — fmt boxing and
// per-event allocations would be paid once per watcher per commit, the
// exact multiplier shared payloads remove.
func (src *streamSource) emit(w io.Writer, event string, d Document, payload []byte) {
	if payload == nil {
		payload = encodeEventPayload(src.path, d)
	}
	f := append(src.frame[:0], "id: "...)
	f = strconv.AppendUint(f, d.Epoch, 10)
	f = append(f, "\nevent: "...)
	f = append(f, event...)
	f = append(f, "\ndata: "...)
	f = append(f, payload...)
	f = append(f, "\n\n"...)
	src.frame = f
	_, _ = w.Write(f)
}

// Heartbeat implements PumpSource: the SSE comment line.
func (src *streamSource) Heartbeat(w io.Writer) { _, _ = io.WriteString(w, ": hb\n\n") }

// Farewell implements PumpSource: the terminal frame of a graceful
// shutdown, so the client reconnects to another replica with its cursors
// intact (ordinary replay catch-up) instead of timing out against a dead
// connection.
func (src *streamSource) Farewell(w io.Writer) {
	_, _ = io.WriteString(w, "event: draining\ndata: {}\n\n")
}

// WatchStream performs one streaming watch against url: it connects with
// "?watch=stream&after=N" (N an epoch, typically the Epoch of the last
// document the caller saw) and invokes fn for every event — replayed
// history first, then live commits — until ctx ends or the connection
// breaks, which is reported as an error so the caller can reconnect with
// its last seen epoch and ride the replay. A server that does not speak the
// streaming transport is reported as ErrStreamUnsupported.
func WatchStream(ctx context.Context, client *http.Client, url string, afterEpoch uint64, fn func(StreamEvent)) error {
	if client == nil {
		client = http.DefaultClient
	}
	sep := "?"
	if strings.ContainsRune(url, '?') {
		sep = "&"
	}
	streamURL := url + sep + "watch=stream&after=" + strconv.FormatUint(afterEpoch, 10)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, streamURL, nil)
	if err != nil {
		return fmt.Errorf("ifsvr: building stream request for %s: %w", url, err)
	}
	req.Header.Set("Accept", StreamContentType)
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("ifsvr: streaming %s: %w", url, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode == http.StatusNotFound {
		return fmt.Errorf("%w: %s", ErrNotFound, url)
	}
	ct := resp.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	if resp.StatusCode != http.StatusOK || !strings.EqualFold(strings.TrimSpace(ct), StreamContentType) {
		return fmt.Errorf("%w (%s answered HTTP %d %s)", ErrStreamUnsupported, url, resp.StatusCode, ct)
	}
	return readStream(ctx, resp.Body, headerUint(resp, GenerationHeader), fn)
}

// readStream parses the SSE framing: "field: value" lines accumulate into
// an event dispatched at each blank line; comment lines (heartbeats) are
// skipped. gen is the serving store's restart generation (from the
// response headers), stamped onto every delivered document. It returns
// when the stream ends (an error — streams are held forever by a healthy
// server) or ctx is done.
func readStream(ctx context.Context, body io.Reader, gen uint64, fn func(StreamEvent)) error {
	br := bufio.NewReader(body)
	var event, data string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("ifsvr: stream ended: %w", ctx.Err())
			}
			return fmt.Errorf("ifsvr: stream broke: %w", err)
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if event == "eviction" {
				// Terminal backpressure event: the server dropped this
				// stream for lagging. Reconnect-with-replay is the cure,
				// same as any broken stream — the sentinel lets the caller
				// count it.
				return fmt.Errorf("%w: %s", ErrStreamEvicted, data)
			}
			if event == "draining" {
				// Terminal graceful-shutdown event: reconnect immediately
				// (to the next replica) with the last seen epoch.
				return ErrStreamDraining
			}
			if data != "" {
				var wire streamWire
				if jerr := json.Unmarshal([]byte(data), &wire); jerr == nil {
					fn(StreamEvent{
						Doc: Document{
							Content:           wire.Content,
							Version:           wire.Version,
							DescriptorVersion: wire.DescriptorVersion,
							Epoch:             wire.Epoch,
							Generation:        gen,
							ContentType:       wire.ContentType,
						},
						Replayed: event == "replay",
						Snapshot: event == "snapshot",
					})
				}
			}
			event, data = "", ""
		case strings.HasPrefix(line, ":"):
			// Comment — the server's heartbeat.
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(line[len("event:"):])
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(line[len("data:"):])
		}
	}
}
