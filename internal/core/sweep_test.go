package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"livedev/internal/clock"
	"livedev/internal/dyn"
)

// The Section 5.6 design space: three publication strategies replayed over
// one seeded developer trace in virtual time. Change-driven publishes on
// every interface-affecting edit ("this approach would often lead to
// publishing transient server interface descriptions"); poll checks the
// interface at fixed intervals and publishes if it changed ("the periodic
// approach could still publish a transient interface ... that could persist
// at the client side until the next polling interval"); stable-timeout is
// the paper's mechanism, the real DLPublisher.
const (
	changeDriven  = "change-driven"
	poll          = "poll"
	stableTimeout = "stable-timeout"
)

// sweepResult summarizes one strategy's publications over a trace.
type sweepResult struct {
	// edits counts interface-affecting change events.
	edits int
	// pubs counts published descriptions; transient counts those another
	// interface edit followed within the settle window (a mid-burst
	// snapshot).
	pubs, transient int
	// meanLag and maxLag measure, over settled edits (no other edit within
	// the settle window after them), the virtual time until the published
	// interface matched the edit. An edit whose interface was already
	// published has lag zero.
	meanLag, maxLag time.Duration
	// missed counts settled edits whose interface was never published
	// before the interface moved on.
	missed int
	// current reports whether the last publication is the final interface.
	current bool
}

// settleWindow decides when an edit is settled and a publication
// transient; traceSeed seeds the edit trace.
const (
	settleWindow = time.Second
	traceSeed    = 7
)

// sweepRows is the seed-7 sweep, row for row. Each expect reads edits,
// pubs, transient, mean lag, max lag, missed, current.
var sweepRows = []struct {
	strategy string
	param    time.Duration // poll interval or stability timeout
	expect   sweepResult
}{
	{changeDriven, 0, sweepResult{36, 36, 22, 0, 0, 0, true}},
	{poll, 200 * time.Millisecond, sweepResult{36, 30, 16, 95843196, 178369999, 0, true}},
	{poll, time.Second, sweepResult{36, 15, 2, 401321875, 965514033, 0, true}},
	{poll, 5 * time.Second, sweepResult{36, 9, 0, 1141534915, 4018891789, 3, true}},
	{stableTimeout, 50 * time.Millisecond, sweepResult{36, 36, 22, 50 * time.Millisecond, 50 * time.Millisecond, 0, true}},
	{stableTimeout, 200 * time.Millisecond, sweepResult{36, 17, 4, 185714285, 200 * time.Millisecond, 0, true}},
	{stableTimeout, 500 * time.Millisecond, sweepResult{36, 13, 0, 464285714, 500 * time.Millisecond, 0, true}},
	{stableTimeout, time.Second, sweepResult{36, 13, 1, 928571428, time.Second, 0, true}},
	{stableTimeout, 2 * time.Second, sweepResult{36, 12, 2, 1846153846, 2 * time.Second, 1, true}},
}

// TestSweep replays the seed-7 trace under every row's strategy and
// compares the whole summary; `go test -v -run Sweep` prints the table.
func TestSweep(t *testing.T) {
	var table strings.Builder
	fmt.Fprintf(&table, "%-16s %10s %8s %8s %10s %10s %10s %8s %8s\n",
		"strategy", "param", "edits", "pubs", "transient", "mean lag", "max lag", "missed", "current")
	for _, row := range sweepRows {
		got := runSweep(t, row.strategy, row.param)
		if got != row.expect {
			t.Errorf("%s %v: got %+v, want %+v", row.strategy, row.param, got, row.expect)
		}
		fmt.Fprintf(&table, "%-16s %10s %8d %8d %10d %10s %10s %8d %8v\n",
			row.strategy, row.param, got.edits, got.pubs, got.transient,
			got.meanLag.Round(time.Millisecond), got.maxLag.Round(time.Millisecond), got.missed, got.current)
	}
	t.Logf("Publication-strategy design space (Section 5.6), seed 7\n%s", &table)
}

// TestSweepQualitativeClaims checks Section 5.6's argument on the sweep:
// change-driven publishes on every edit and publishes transient
// interfaces; the stable timeout publishes much less, with no more
// transients, and every strategy ends on the final interface.
func TestSweepQualitativeClaims(t *testing.T) {
	results := map[string]sweepResult{}
	for _, row := range sweepRows {
		r := runSweep(t, row.strategy, row.param)
		if !r.current {
			t.Errorf("%s %v: final interface not published", row.strategy, row.param)
		}
		results[fmt.Sprint(row.strategy, row.param)] = r
	}
	cd, stable := results[changeDriven+"0s"], results[stableTimeout+"500ms"]
	if cd.pubs != cd.edits {
		t.Errorf("change-driven should publish per edit: %d pubs, %d edits", cd.pubs, cd.edits)
	}
	if cd.transient == 0 {
		t.Error("change-driven should publish transient interfaces on bursty traces")
	}
	if stable.pubs >= cd.pubs {
		t.Errorf("stable-timeout (%d pubs) should publish less than change-driven (%d)", stable.pubs, cd.pubs)
	}
	if stable.transient > cd.transient {
		t.Error("stable-timeout should not publish more transients than change-driven")
	}
}

// traceEdit is one step of a developer trace: wait delay, then make an
// edit of the kind.
type traceEdit struct {
	delay time.Duration
	kind  int
}

// The edit kinds. Interface edits arm the publication timer; body edits
// do not.
const (
	editRename = iota
	editSetParams
	editSetResult
	editToggleDistributed
	editBody
)

// editTrace is the seeded editing session: 20 bursts of about 5 edits,
// 150 ms between edits inside a burst and 3 s of think time between
// bursts (each delay 50–150 % of its mean), 30 % of edits body-only.
func editTrace() []traceEdit {
	r := rand.New(rand.NewSource(traceSeed))
	jitter := func(mean time.Duration) time.Duration {
		return time.Duration(float64(mean) * (0.5 + r.Float64()))
	}
	var trace []traceEdit
	for range 20 {
		n := 1 + r.Intn(10)
		for i := range n {
			delay := jitter(150 * time.Millisecond)
			if i == 0 {
				delay = jitter(3 * time.Second)
			}
			kind := r.Intn(editBody)
			if r.Float64() < 0.3 {
				kind = editBody
			}
			trace = append(trace, traceEdit{delay, kind})
		}
	}
	return trace
}

// applyEdit makes step's edit on method id, derived from step so a trace
// replays identically.
func applyEdit(class *dyn.Class, id dyn.MemberID, kind, step int) error {
	switch kind {
	case editRename:
		return class.RenameMethod(id, fmt.Sprintf("op_%d", step))
	case editSetParams:
		params := make([]dyn.Param, 1+step%3)
		for i := range params {
			params[i] = dyn.Param{Name: fmt.Sprintf("p%d", i), Type: dyn.Int32T}
		}
		return class.SetParams(id, params)
	case editSetResult:
		results := []*dyn.Type{dyn.Int32T, dyn.Int64T, dyn.StringT, dyn.Float64T}
		return class.SetResult(id, results[step%len(results)])
	case editToggleDistributed:
		return class.SetDistributed(id, step%2 == 0)
	default:
		return class.SetBody(id, func(*dyn.Instance, []dyn.Value) (dyn.Value, error) {
			return dyn.Zero(dyn.Int32T), nil
		})
	}
}

// stamped is an interface hash at an instant of virtual time.
type stamped struct {
	t    time.Time
	hash string
}

// runSweep replays the trace under one strategy and summarizes what it
// published.
func runSweep(t *testing.T, strategy string, param time.Duration) sweepResult {
	t.Helper()
	clk := clock.NewFake()
	class := dyn.NewClass("Sweep")
	id, err := class.AddMethod(dyn.MethodSpec{Name: "op", Result: dyn.Int32T, Distributed: true})
	if err != nil {
		t.Fatal(err)
	}
	var changes, pubs []stamped
	defer class.Subscribe(func(ev dyn.ChangeEvent) {
		if ev.InterfaceAffecting {
			changes = append(changes, stamped{clk.Now(), class.Interface().Hash()})
		}
	})()
	published := class.Interface().Hash()
	publish := func(hash string) {
		if hash != published {
			published = hash
			pubs = append(pubs, stamped{clk.Now(), hash})
		}
	}

	var pub *DLPublisher
	switch strategy {
	case changeDriven:
		defer class.Subscribe(func(ev dyn.ChangeEvent) {
			if ev.InterfaceAffecting {
				publish(class.Interface().Hash())
			}
		})()
	case poll:
		stopped := false
		var tick func()
		tick = func() {
			if !stopped {
				publish(class.Interface().Hash())
				clk.AfterFunc(param, tick)
			}
		}
		clk.AfterFunc(param, tick)
		defer func() { stopped = true }()
	case stableTimeout:
		pub = NewDLPublisher(class, param, clk, func(desc dyn.InterfaceDescriptor) error {
			pubs = append(pubs, stamped{clk.Now(), desc.Hash()})
			return nil
		})
		defer pub.Close()
	}

	for i, e := range editTrace() {
		advanceTo(clk, pub, e.delay)
		if err := applyEdit(class, id, e.kind, i); err != nil {
			t.Fatal(err)
		}
	}
	advanceTo(clk, pub, 2*max(settleWindow, param)) // let a pending timer fire
	return summarize(changes, pubs, class.Interface().Hash())
}

// advanceTo moves virtual time forward by d, stopping at each timer
// deadline on the way until the generation the timer started has
// finished, so every publication is stamped with the instant its timer
// fired.
func advanceTo(clk *clock.Fake, pub *DLPublisher, d time.Duration) {
	for {
		ds := clk.Deadlines()
		if len(ds) == 0 || ds[0].Sub(clk.Now()) > d {
			clk.Advance(d)
			return
		}
		step := ds[0].Sub(clk.Now())
		clk.Advance(step)
		d -= step
		if pub != nil {
			pub.WaitIdle()
		}
	}
}

func summarize(changes, pubs []stamped, final string) sweepResult {
	r := sweepResult{edits: len(changes), pubs: len(pubs)}
	for _, p := range pubs {
		for _, c := range changes {
			if c.t.After(p.t) && c.t.Sub(p.t) < settleWindow {
				r.transient++
				break
			}
		}
	}
	publishedAt := func(t time.Time) string {
		h := ""
		for _, p := range pubs {
			if !p.t.After(t) {
				h = p.hash
			}
		}
		return h
	}
	var lags []time.Duration
next:
	for i, c := range changes {
		if i+1 < len(changes) && changes[i+1].t.Sub(c.t) < settleWindow {
			continue // not settled
		}
		if publishedAt(c.t) == c.hash {
			lags = append(lags, 0)
			continue
		}
		for _, p := range pubs {
			if !p.t.Before(c.t) && p.hash == c.hash {
				lags = append(lags, p.t.Sub(c.t))
				continue next
			}
		}
		r.missed++
	}
	for _, l := range lags {
		r.meanLag += l
		r.maxLag = max(r.maxLag, l)
	}
	if len(lags) > 0 {
		r.meanLag /= time.Duration(len(lags))
	}
	r.current = len(pubs) > 0 && pubs[len(pubs)-1].hash == final
	return r
}
