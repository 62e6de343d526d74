package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"livedev/internal/clock"
	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/workload"
)

// Strategy is a publication policy from the Section 5.6 design space.
type Strategy int

// The three policies the paper discusses.
const (
	// StrategyChangeDriven publishes on every interface-affecting change
	// ("this approach would often lead to publishing transient server
	// interface descriptions").
	StrategyChangeDriven Strategy = iota + 1
	// StrategyPoll checks the interface at fixed intervals and publishes
	// if it changed ("the periodic approach could still publish a
	// transient interface ... that could persist at the client side until
	// the next polling interval").
	StrategyPoll
	// StrategyStableTimeout is the paper's mechanism: change-driven, but
	// waits for a stable interval (implemented by core.DLPublisher).
	StrategyStableTimeout
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyChangeDriven:
		return "change-driven"
	case StrategyPoll:
		return "poll"
	case StrategyStableTimeout:
		return "stable-timeout"
	default:
		return "unknown"
	}
}

// SweepResult summarizes one (strategy, parameter) run over an edit trace.
type SweepResult struct {
	Strategy Strategy
	// Param is the poll interval or stability timeout (0 for
	// change-driven).
	Param time.Duration
	// InterfaceEdits is the number of interface-affecting edits applied.
	InterfaceEdits int
	// Publications is the number of interface descriptions published.
	Publications int
	// TransientPublications counts publications that captured a mid-burst
	// interface: another interface edit arrived within the settle window
	// after the publication.
	TransientPublications int
	// MeanLag and MaxLag measure, over settled edits (edits not followed
	// by another edit within the settle window), the virtual time from the
	// edit until the published interface matched it. An edit whose
	// interface was already published (e.g. an edit reverting to the
	// published state) has lag zero.
	MeanLag, MaxLag time.Duration
	// MissedEdits counts settled edits whose interface was never published
	// before the interface moved on — clients could never have seen them.
	MissedEdits int
	// FinalCurrent reports whether the last published interface equals the
	// class's final interface.
	FinalCurrent bool
}

// SweepConfig parameterizes the publication-strategy experiment.
type SweepConfig struct {
	// Trace is the developer editing model.
	Trace workload.TraceConfig
	// SettleWindow defines when an edit counts as settled and when a
	// publication counts as transient.
	SettleWindow time.Duration
	// Timeouts are the stable-timeout values to sweep.
	Timeouts []time.Duration
	// PollIntervals are the polling intervals to sweep.
	PollIntervals []time.Duration
}

// DefaultSweep covers the paper's qualitative comparison with a parameter
// sweep around the editing model's time constants.
func DefaultSweep(seed int64) SweepConfig {
	return SweepConfig{
		Trace:        workload.DefaultTrace(seed),
		SettleWindow: time.Second,
		Timeouts: []time.Duration{
			50 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
			1 * time.Second, 2 * time.Second,
		},
		PollIntervals: []time.Duration{
			200 * time.Millisecond, 1 * time.Second, 5 * time.Second,
		},
	}
}

// event is a timestamped occurrence in virtual time.
type event struct {
	t    time.Time
	hash string
}

// RunSweep replays the edit trace in virtual time under every strategy
// configuration and reports the resulting publication behaviour.
func RunSweep(cfg SweepConfig) ([]SweepResult, error) {
	if cfg.SettleWindow <= 0 {
		cfg.SettleWindow = time.Second
	}
	var results []SweepResult

	run := func(s Strategy, param time.Duration) error {
		r, err := runOne(cfg, s, param)
		if err != nil {
			return err
		}
		results = append(results, r)
		return nil
	}

	if err := run(StrategyChangeDriven, 0); err != nil {
		return nil, err
	}
	for _, p := range cfg.PollIntervals {
		if err := run(StrategyPoll, p); err != nil {
			return nil, err
		}
	}
	for _, to := range cfg.Timeouts {
		if err := run(StrategyStableTimeout, to); err != nil {
			return nil, err
		}
	}
	return results, nil
}

func runOne(cfg SweepConfig, s Strategy, param time.Duration) (SweepResult, error) {
	clk := clock.NewFake()
	class := dyn.NewClass("Sweep")
	id, err := class.AddMethod(dyn.MethodSpec{Name: "op", Result: dyn.Int32T, Distributed: true})
	if err != nil {
		return SweepResult{}, err
	}

	var pubs []event
	var changes []event
	recordPub := func(hash string) {
		pubs = append(pubs, event{t: clk.Now(), hash: hash})
	}

	// Track interface changes in virtual time.
	unsub := class.Subscribe(func(ev dyn.ChangeEvent) {
		if ev.InterfaceAffecting {
			changes = append(changes, event{t: clk.Now(), hash: class.Interface().Hash()})
		}
	})
	defer unsub()

	var pub *core.DLPublisher
	var cancelStrategy func()
	switch s {
	case StrategyChangeDriven:
		lastPublished := class.Interface().Hash()
		cancelStrategy = class.Subscribe(func(ev dyn.ChangeEvent) {
			if !ev.InterfaceAffecting {
				return
			}
			h := class.Interface().Hash()
			if h != lastPublished {
				lastPublished = h
				recordPub(h)
			}
		})
	case StrategyPoll:
		lastPublished := class.Interface().Hash()
		stopped := false
		var poll func()
		poll = func() {
			if stopped {
				return
			}
			if h := class.Interface().Hash(); h != lastPublished {
				lastPublished = h
				recordPub(h)
			}
			clk.AfterFunc(param, poll)
		}
		clk.AfterFunc(param, poll)
		cancelStrategy = func() { stopped = true }
	case StrategyStableTimeout:
		pub = core.NewDLPublisher(class, param, clk, func(desc dyn.InterfaceDescriptor) error {
			recordPub(desc.Hash())
			return nil
		})
		cancelStrategy = pub.Close
	default:
		return SweepResult{}, fmt.Errorf("experiments: unknown strategy %d", s)
	}

	// Replay the trace in virtual time. Timers that fall inside a delay
	// are advanced-to exactly, and any resulting asynchronous generation
	// is drained before time moves on, so publication timestamps are
	// exact in virtual time.
	trace := workload.Generate(cfg.Trace)
	for i, e := range trace {
		advanceDraining(clk, pub, e.Delay)
		if _, err := workload.Apply(class, id, e, i); err != nil {
			cancelStrategy()
			return SweepResult{}, err
		}
	}
	// Flush: let any pending timer/poll fire.
	flush := cfg.SettleWindow
	if param > flush {
		flush = param
	}
	advanceDraining(clk, pub, 2*flush)
	cancelStrategy()

	// Interface edits = actual interface-affecting change events. An edit
	// that leaves the interface descriptor unchanged (e.g. toggling a flag
	// to its current state) does not count, matching how the SDE's change
	// detection sees the world.
	return summarizeSweep(s, param, len(changes), changes, pubs, cfg.SettleWindow, class.Interface().Hash()), nil
}

// waitPublisher lets an in-flight DLPublisher generation finish so virtual
// timestamps stay deterministic.
func waitPublisher(p *core.DLPublisher) {
	if p == nil {
		return
	}
	for p.Busy() {
		runtime.Gosched()
	}
}

// advanceDraining advances virtual time by d, stopping at each pending
// timer deadline to drain any generation the expiry started, so events are
// recorded at the virtual instant they logically occur.
func advanceDraining(clk *clock.Fake, pub *core.DLPublisher, d time.Duration) {
	for d > 0 {
		step := d
		if ds := clk.Deadlines(); len(ds) > 0 {
			if until := ds[0].Sub(clk.Now()); until >= 0 && until < step {
				step = until
			}
		}
		if step <= 0 {
			step = time.Nanosecond
		}
		clk.Advance(step)
		waitPublisher(pub)
		d -= step
	}
	waitPublisher(pub)
}

func summarizeSweep(s Strategy, param time.Duration, edits int, changes, pubs []event, settle time.Duration, finalHash string) SweepResult {
	r := SweepResult{
		Strategy:       s,
		Param:          param,
		InterfaceEdits: edits,
		Publications:   len(pubs),
	}
	// Transient publications: an interface change lands within the settle
	// window after the publication (the published description was a
	// mid-burst snapshot).
	for _, p := range pubs {
		for _, c := range changes {
			if c.t.After(p.t) && c.t.Sub(p.t) < settle {
				r.TransientPublications++
				break
			}
		}
	}
	// Publication lag over settled edits: time until the published
	// interface matched the edit's interface.
	publishedHashAt := func(t time.Time) string {
		h := ""
		for _, p := range pubs {
			if !p.t.After(t) {
				h = p.hash
			}
		}
		return h
	}
	var lags []time.Duration
	for i, c := range changes {
		settled := true
		for _, c2 := range changes[i+1:] {
			if c2.t.Sub(c.t) < settle {
				settled = false
				break
			}
		}
		if !settled {
			continue
		}
		if publishedHashAt(c.t) == c.hash {
			lags = append(lags, 0)
			continue
		}
		published := false
		for _, p := range pubs {
			if !p.t.Before(c.t) && p.hash == c.hash {
				lags = append(lags, p.t.Sub(c.t))
				published = true
				break
			}
		}
		if !published {
			r.MissedEdits++
		}
	}
	if len(lags) > 0 {
		var total time.Duration
		for _, l := range lags {
			total += l
			if l > r.MaxLag {
				r.MaxLag = l
			}
		}
		r.MeanLag = total / time.Duration(len(lags))
	}
	if len(pubs) > 0 {
		r.FinalCurrent = pubs[len(pubs)-1].hash == finalHash
	}
	return r
}

// FormatSweep renders sweep results as an aligned table.
func FormatSweep(results []SweepResult) string {
	var b strings.Builder
	b.WriteString("Publication-strategy design space (Section 5.6)\n")
	fmt.Fprintf(&b, "%-16s %10s %8s %8s %10s %10s %10s %8s %8s\n",
		"strategy", "param", "edits", "pubs", "transient", "mean lag", "max lag", "missed", "current")
	for _, r := range results {
		fmt.Fprintf(&b, "%-16s %10s %8d %8d %10d %10s %10s %8d %8v\n",
			r.Strategy, r.Param, r.InterfaceEdits, r.Publications,
			r.TransientPublications,
			r.MeanLag.Round(time.Millisecond), r.MaxLag.Round(time.Millisecond),
			r.MissedEdits, r.FinalCurrent)
	}
	return b.String()
}
