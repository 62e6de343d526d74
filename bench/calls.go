package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"livedev"
	"livedev/internal/dyn"
)

// callFn performs one round trip and returns what came back; the caller
// times it and checks the echo outside the timed interval.
type callFn func() (dyn.Value, error)

// sliceResult is one closed-loop slice: every successful call's latency,
// and how many were attempted and failed. A failed or corrupted call
// counts as failed and contributes no latency sample.
type sliceResult struct {
	lat       []time.Duration
	attempted int
	failed    int
	elapsed   time.Duration
	// factor is the clock calibration over the slice (see calib.go).
	factor float64
}

// runSlice drives call in a closed loop from `callers` goroutines until
// the deadline (or, when count > 0, until each caller has made count
// calls — the warm-up shape). The first caller calibrates the clock
// between calls, outside any timed interval.
func runSlice(cal *calib, call callFn, want dyn.Value, d time.Duration, count, callers int) sliceResult {
	parts := make([]sliceResult, callers)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(p *sliceResult, calibrates bool) {
			defer wg.Done()
			p.lat = make([]time.Duration, 0, 4096)
			var lastSpin time.Time
			for {
				t0 := time.Now()
				if calibrates && t0.Sub(lastSpin) >= spinEvery {
					cal.tick()
					t0 = time.Now()
					lastSpin = t0
				}
				if count > 0 {
					if p.attempted >= count {
						return
					}
				} else if !t0.Before(deadline) {
					return
				}
				got, err := call()
				lat := time.Since(t0)
				p.attempted++
				if err != nil || !got.Equal(want) {
					p.failed++
					continue
				}
				p.lat = append(p.lat, lat)
			}
		}(&parts[c], c == 0)
	}
	wg.Wait()
	end := time.Now()
	out := sliceResult{elapsed: end.Sub(start), factor: cal.factor(start, end)}
	for _, p := range parts {
		out.lat = append(out.lat, p.lat...)
		out.attempted += p.attempted
		out.failed += p.failed
	}
	return out
}

// lane accumulates one binding's slices across rounds, every time scaled
// to the nominal clock by its slice's calibration.
type lane struct {
	p50s      []float64 // per-round p50, µs
	rates     []float64 // per-round completed ops per second
	all       []float64 // every latency sample, µs (for the tail)
	attempted int
	failed    int
}

func (l *lane) add(r sliceResult) {
	l.attempted += r.attempted
	l.failed += r.failed
	if len(r.lat) == 0 {
		return
	}
	us := durationsUS(r.lat)
	for i := range us {
		us[i] /= r.factor
	}
	l.p50s = append(l.p50s, median(us))
	l.rates = append(l.rates, float64(len(r.lat))/r.elapsed.Seconds()*r.factor)
	l.all = append(l.all, us...)
}

// warmupCalls is how many calls each caller makes per binding before the
// window opens: enough to fill connection pools and settle the allocator.
// It is a count, not a duration, so setup_s measures work.
const warmupCalls = 100

// dialClients builds one live client per binding through the public
// facade. None watches: interface updates arrive only reactively.
func dialClients(ctx context.Context, h hello) ([]*livedev.Client, error) {
	clients := make([]*livedev.Client, len(bindings))
	for i, b := range bindings {
		c, err := livedev.Dial(ctx, h.Bindings[b.tech].Doc, livedev.WithTimeout(10*time.Second))
		if err != nil {
			closeClients(clients)
			return nil, fmt.Errorf("bench: dialing %s: %w", b.tech, err)
		}
		if c.Technology() != b.tech {
			closeClients(append(clients, c))
			return nil, fmt.Errorf("bench: %s document sniffed as %s", b.tech, c.Technology())
		}
		clients[i] = c
	}
	return clients, nil
}

func closeClients(cs []*livedev.Client) {
	for _, c := range cs {
		if c != nil {
			_ = c.Close()
		}
	}
}

// clientCall is the end-to-end call a user of the system makes.
func clientCall(c *livedev.Client, method string, arg dyn.Value) callFn {
	ctx := context.Background()
	return func() (dyn.Value, error) { return c.CallContext(ctx, method, arg) }
}

// callShape is what distinguishes the three calls workloads.
func (w workload) callShape(in *inputs) (method string, arg dyn.Value, callers int) {
	method, arg, callers = in.methods[0], in.small, 1
	if w.bulk {
		method, arg = in.methods[bulkMethod], in.bulk
	}
	if w.concurrent {
		callers = max(2, nproc())
	}
	return
}

// setupCalls dials the four clients and warms every stack up.
func setupCalls(s *session, w workload) error {
	var err error
	if s.clients, err = dialClients(context.Background(), s.cl.server.hello); err != nil {
		return err
	}
	method, arg, callers := w.callShape(s.in)
	for i, c := range s.clients {
		r := runSlice(&s.cal, clientCall(c, method, arg), arg, 0, s.opt.scaled(warmupCalls), callers)
		if r.failed > 0 {
			return fmt.Errorf("bench: %s warm-up: %d of %d calls failed", bindings[i].tech, r.failed, r.attempted)
		}
	}
	return nil
}

// roundLength is the length of one measurement round: every stack gets an
// equal slice of each round, in an order that rotates from round to round,
// so slow drift of the machine lands on all of them equally.
const roundLength = time.Second

// runCalls measures the four bindings' livedev.Dial + Client.CallContext
// round trip in interleaved closed-loop rounds.
func runCalls(s *session, w workload) (*result, error) {
	method, arg, callers := w.callShape(s.in)
	lanes := make([]lane, len(bindings))
	rounds := max(1, int(s.opt.window/roundLength))
	slice := s.opt.window / time.Duration(rounds*len(bindings))
	win := beginWindow(s)
	for r := 0; r < rounds; r++ {
		for k := range bindings {
			i := (k + r) % len(bindings)
			lanes[i].add(runSlice(&s.cal, clientCall(s.clients[i], method, arg), arg, slice, 0, callers))
		}
	}
	win.stop()
	res := newResult(w)
	ops := 0
	for i := range lanes {
		res.addLane(bindings[i].key, &lanes[i])
		ops += lanes[i].attempted - lanes[i].failed
	}
	win.report(res, ops)
	return res, nil
}
