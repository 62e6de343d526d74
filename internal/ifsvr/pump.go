package ifsvr

import (
	"errors"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// The delivery pump: the one held-connection loop in the repository.
//
// Commits never write to sockets. Every held connection — an SSE watch
// stream of one path or, for a replication follower, of all paths — owns a
// Pump: a capacity-1 wake channel the commit path (or the shared heartbeat
// sweep) nudges. The connection's goroutine runs Pump.Run, which on each
// wake asks its PumpSource for everything pending behind the source's own
// cursor, so a commit costs one non-blocking send per watcher and a slow
// socket slows nobody but itself. Run owns the whole held-connection policy:
//
//   - one write deadline per batch, armed on the batch's first write;
//   - one flush per batch, however many frames the source wrote, the
//     first carrying the response headers;
//   - a failed write is an eviction when it missed the deadline (or the
//     peer is still connected), a hangup otherwise;
//   - idle liveness frames, paced by one shared PumpSweep ticker instead
//     of a timer per connection;
//   - a graceful drain ends the connection with the source's farewell.
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
	// Heartbeat writes one idle liveness frame.
	Heartbeat(w io.Writer)
	// Farewell writes the terminal frame of a graceful drain; a plane
	// without one writes nothing.
	Farewell(w io.Writer)
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
	// Sweep is the plane's shared heartbeat ticker.
	Sweep *PumpSweep
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

// NewPump returns a pump whose idle clock starts now. Register it with
// whatever nudges it — Store.watchPath, Store.watchAll — before calling
// Run, so a commit landing in between is a pending wake, not a lost one.
func NewPump() *Pump {
	p := &Pump{wake: make(chan struct{}, 1)}
	p.touch()
	return p
}

// Nudge delivers a non-blocking wake; a full channel means one is already
// pending, which is all a level-triggered pump needs.
func (p *Pump) Nudge() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
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
	cfg.Sweep.Add(p)
	defer cfg.Sweep.Remove(p)
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
			src.Heartbeat(pw)
			if !deliver() {
				return
			}
			cfg.Counters.Heartbeats.Add(1)
		}
		select {
		case <-r.Context().Done():
			return
		case <-cfg.Drain:
			src.Farewell(pw)
			_ = pw.flush()
			return
		case <-p.wake:
		}
	}
}

// PumpSweep replaces per-connection heartbeat timers with one shared
// ticker: a single goroutine periodically nudges every registered pump,
// and each pump decides for itself whether a liveness frame is due. The
// sweeping goroutine starts with the first registration and exits when
// the registry empties, so an idle server runs no ticker.
type PumpSweep struct {
	interval time.Duration

	mu       sync.Mutex
	pumps    map[*Pump]struct{}
	sweeping bool
}

// NewPumpSweep returns a sweep ticking at the given interval (clamped to
// at least 1ms). Sweep at half the heartbeat interval so an idle
// connection's liveness write lands within 1.5× the nominal heartbeat.
func NewPumpSweep(interval time.Duration) *PumpSweep {
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	return &PumpSweep{interval: interval, pumps: make(map[*Pump]struct{})}
}

// Add registers a pump, starting the sweeping goroutine if it is the
// first.
func (s *PumpSweep) Add(p *Pump) {
	s.mu.Lock()
	s.pumps[p] = struct{}{}
	if !s.sweeping {
		s.sweeping = true
		go s.run()
	}
	s.mu.Unlock()
}

// Remove unregisters a pump; the sweeping goroutine retires on its own
// once the registry is empty.
func (s *PumpSweep) Remove(p *Pump) {
	s.mu.Lock()
	delete(s.pumps, p)
	s.mu.Unlock()
}

func (s *PumpSweep) run() {
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for range t.C {
		s.mu.Lock()
		if len(s.pumps) == 0 {
			s.sweeping = false
			s.mu.Unlock()
			return
		}
		for p := range s.pumps {
			p.Nudge()
		}
		s.mu.Unlock()
	}
}
