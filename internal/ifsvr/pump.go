package ifsvr

import (
	"errors"
	"io"
	"net/http"
	"os"
	"sync/atomic"
	"time"
)

// The delivery pump: the one held-connection loop in the repository.
//
// Commits never write to sockets. Every held connection — an SSE watch
// stream of one path or, for a replication follower, of all paths — owns a
// Pump: a capacity-1 wake channel the commit path (or the store's
// heartbeat tick) nudges. The connection's goroutine runs Pump.Run, which
// on each wake asks its PumpSource for everything pending behind the
// source's own cursor, so a commit costs one non-blocking send per
// watcher and a slow socket slows nobody but itself. Run owns the whole
// held-connection policy:
//
//   - one write deadline per batch, armed on the batch's first write;
//   - one flush per batch, however many frames the source wrote, the
//     first carrying the response headers;
//   - a failed write is an eviction when it missed the deadline (or the
//     peer is still connected), a hangup otherwise;
//   - idle liveness frames (an SSE comment), paced by the store's one
//     heartbeat tick instead of a timer per connection;
//   - a graceful drain ends the connection with a terminal "draining"
//     event, so the client reconnects to another replica with its cursors
//     intact (ordinary replay catch-up) instead of timing out against a
//     dead connection.
//
// What is pending, how it is framed, and what a cursor the journal no
// longer covers gets instead (a snapshot reset, a lag eviction) is the
// source's business: streamSource in stream.go, and allSource in repl.go.

// DefaultStreamWriteTimeout bounds each batch write on a held watch stream
// when Server.StreamWriteTimeout is zero.
const DefaultStreamWriteTimeout = 5 * time.Second

// A PumpSource is the plane-specific half of a held connection. Its
// methods write frames to w and ignore write errors: the writer is sticky
// on the first failure, and Run classifies it.
type PumpSource interface {
	// Collect writes the frames of everything pending behind the source's
	// cursor and advances the cursor past them. Returning false ends the
	// connection after a best-effort flush of what was written — a
	// terminal frame, or nothing at all.
	Collect(w io.Writer) (hold bool)
}

// PumpCounters are the outcomes Run counts on behalf of its plane.
type PumpCounters struct {
	// Heartbeats counts idle liveness frames delivered.
	Heartbeats atomic.Uint64
	// Evictions counts connections dropped for backpressure: a batch that
	// missed its write deadline, or any failed write with the peer still
	// connected. Sources add their own valves (the lag budget) here too.
	Evictions atomic.Uint64
}

// PumpConfig is the held-connection policy of one plane.
type PumpConfig struct {
	// WriteTimeout bounds each batch (0 disables the deadline).
	WriteTimeout time.Duration
	// Heartbeat is the idle interval after which a liveness frame is due.
	Heartbeat time.Duration
	// Drain is closed when the server begins a graceful shutdown.
	Drain <-chan struct{}
	// Counters receives heartbeat and eviction counts.
	Counters *PumpCounters
}

// A Pump is one held connection's delivery handle: the wake channel plus
// the time of the connection's last completed flush.
type Pump struct {
	wake      chan struct{}
	lastWrite atomic.Int64 // unix nanos of the last completed flush
}

// NewPump returns a pump whose idle clock starts now. Register its wake
// channel with the store (Store.watchPath) before calling Run, so a commit
// landing in between is a pending wake, not a lost one.
func NewPump() *Pump {
	p := &Pump{wake: make(chan struct{}, 1)}
	p.touch()
	return p
}

func (p *Pump) touch() { p.lastWrite.Store(time.Now().UnixNano()) }

func (p *Pump) idle() time.Duration {
	return time.Duration(time.Now().UnixNano() - p.lastWrite.Load())
}

// pumpWriter is the io.Writer a source sees: it arms the batch's write
// deadline on the first write after a flush and latches the first error.
type pumpWriter struct {
	w       io.Writer
	rc      *http.ResponseController
	timeout time.Duration
	dirty   bool
	err     error
}

func (pw *pumpWriter) Write(b []byte) (int, error) {
	if pw.err != nil {
		return 0, pw.err
	}
	if !pw.dirty {
		pw.arm()
	}
	n, err := pw.w.Write(b)
	pw.err = err
	return n, err
}

// arm opens a batch: the next flush is due, under the write deadline.
func (pw *pumpWriter) arm() {
	pw.dirty = true
	if pw.timeout > 0 {
		_ = pw.rc.SetWriteDeadline(time.Now().Add(pw.timeout))
	}
}

// flush pushes the batch to the socket and reports the batch's fate.
func (pw *pumpWriter) flush() error {
	if pw.dirty && pw.err == nil {
		pw.err = pw.rc.Flush()
	}
	pw.dirty = false
	return pw.err
}

// Run serves one held connection until the peer goes away, the source
// ends it, a write fails, or the server drains. The response headers are
// written but not flushed: they go out with the first batch, the
// connect-time catch-up, so a client that has read them knows its
// catch-up was collected.
func (p *Pump) Run(w http.ResponseWriter, r *http.Request, cfg PumpConfig, src PumpSource) {
	pw := &pumpWriter{w: w, rc: http.NewResponseController(w), timeout: cfg.WriteTimeout}
	pw.arm() // the headers open the first batch
	// deliver flushes what the source wrote. The error check matters: the
	// http server cancels the request context on any connection write
	// error, so by then a deadline miss is indistinguishable from a hangup
	// by the context alone. A dead context without a deadline error is the
	// peer hanging up — not backpressure.
	deliver := func() bool {
		if !pw.dirty {
			return true
		}
		err := pw.flush()
		if err == nil {
			p.touch()
			return true
		}
		if errors.Is(err, os.ErrDeadlineExceeded) || r.Context().Err() == nil {
			cfg.Counters.Evictions.Add(1)
		}
		return false
	}
	for {
		if !src.Collect(pw) {
			_ = pw.flush()
			return
		}
		if !deliver() {
			return
		}
		if p.idle() >= cfg.Heartbeat {
			_, _ = io.WriteString(pw, ": hb\n\n")
			if !deliver() {
				return
			}
			cfg.Counters.Heartbeats.Add(1)
		}
		select {
		case <-r.Context().Done():
			return
		case <-cfg.Drain:
			_, _ = io.WriteString(pw, "event: draining\ndata: {}\n\n")
			_ = pw.flush()
			return
		case <-p.wake:
		}
	}
}
