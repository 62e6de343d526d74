// Command bench is the repository's benchmark: the numbers every later
// performance or simplicity claim is measured with. The system under test
// runs in re-exec'd child processes; this process generates the load,
// checks every output, and prints the metrics BENCHMARK.json names.
// See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"livedev"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// setup prepares a session (clients dialed, watchers connected, warm-up
	// done); run measures one window on it.
	setup func(*session, workload) error
	run   func(*session, workload) (*result, error)
	// bulk and concurrent shape the calls workloads — and, in the traced
	// pass of any workload, the payload and caller count its probes use.
	bulk, concurrent bool
	// follower says the workload needs the replica child.
	follower bool
}

var workloads = []workload{
	{name: "calls_small", setup: setupCalls, run: runCalls,
		why: "closed loop, 1 caller, 64-byte echo: per-call fixed cost (transport, core mux/handler, dyn dispatch) dominates, codecs do little; the paper's Table 1"},
	{name: "calls_bulk", setup: setupCalls, run: runCalls, bulk: true,
		why: "closed loop, 1 caller, 256-element struct sequence echoed (~16 KB of SOAP): the codecs and h2x flow control dominate, fixed cost does little"},
	{name: "calls_concurrent", setup: setupCalls, run: runCalls, concurrent: true,
		why: "closed loop, nproc callers (min 2) sharing one client per binding: multiplexing, pooling and shared locks; serial tricks that cost throughput show here"},
	{name: "edit_fanout", setup: setupEdits, run: runEdits, follower: true,
		why: "open loop of renames at a fixed rate against a durable store with 256 held watchers and a follower: publish, WAL, wake, pump, wire, install; no calls, so call-path changes must not move it"},
	{name: "stale_recovery", setup: setupStale, run: runStale,
		why: "closed loop of rename-then-stale-call cycles without a watcher: forced publication, document generation, fetch, refresh and compile; no fan-out, no steady-state calls"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options is the parsed command line.
type options struct {
	seed   uint64
	window time.Duration
	trace  bool
	spans  string
	// quick is the sub-second smoke shape: fewer watchers, one set-up.
	quick bool
}

// editRate is how many renames a second edit_fanout issues, rotated over
// the four classes: 150 samples per document in a 15 s window.
const editRate = 40

// watchers is the number of leader-side watchers edit_fanout holds, spread
// evenly over the four documents.
func (o options) watchers() int {
	if o.quick {
		return 32
	}
	return 256
}

// scaled shrinks a fixed count of warm-up or filler work in the smoke
// shape, where only correctness is looked at.
func (o options) scaled(n int) int {
	if o.quick {
		return max(2, n/20)
	}
	return n
}

// setups is how many times a run sets the workload up; setup_s is the
// median.
func (o options) setups() int {
	if o.quick || o.trace {
		return 1
	}
	return 3
}

// session is one set-up instance of the system under test with the load
// generator's clients attached.
type session struct {
	opt     options
	in      *inputs
	cl      *cluster
	clients []*livedev.Client
	fan     *fanout
	plan    *editPlan
	// cal is the session's clock calibration record (calib.go).
	cal calib
}

func (s *session) close() {
	if s.fan != nil {
		s.fan.close()
	}
	closeClients(s.clients)
	if s.cl != nil {
		s.cl.stop()
	}
}

// benchCPUs is the CPU set every process of the benchmark — this load
// generator and each child — is pinned to. On loopback a call is a chain of
// wake-ups between client and server; when the two sit on different virtual
// CPUs each wake-up is an inter-processor interrupt that costs more than the
// call and varies with where the scheduler last put the threads (README.md,
// "Steadiness": unpinned, SOAP's p50 read 44 to 92 µs run to run). Sharing
// one CPU set turns a wake-up into a context switch. The set is the last
// max(1, nproc/2) allowed CPUs, leaving the first ones, which take the
// interrupts, to the rest of the machine.
var benchCPUs []int

func pinAll() error {
	allowed, err := allowedCPUs()
	if err != nil || len(allowed) == 0 {
		return err
	}
	benchCPUs = allowed[len(allowed)-procsPerSide():]
	return pinProcess(benchCPUs)
}

// logOut carries everything that is not a result: machine facts, budgets.
var logOut io.Writer = os.Stderr

func nproc() int { return runtime.NumCPU() }

// procsPerSide is the processor budget of each side: half the machine to
// the load generator, half to each child, so neither starves the other.
func procsPerSide() int { return max(1, nproc()/2) }

// setUp builds a fresh session for w and reports how long that took:
// binary already built; children spawned, classes registered, clients
// dialed, watchers connected, warm-up done.
func setUp(w workload, opt options, follower bool) (*session, time.Duration, error) {
	s := &session{opt: opt, in: newInputs(opt.seed)}
	s.plan = newEditPlan(s.in)
	// Set-up is mostly other processes starting: it cannot be interleaved
	// with calibration, so it is bracketed by it.
	s.cal.ticks(setupTicks)
	start := time.Now()
	var err error
	if s.cl, err = startCluster(s.in, follower); err != nil {
		return nil, 0, err
	}
	if err := w.setup(s, w); err != nil {
		s.close()
		return nil, 0, err
	}
	took := time.Since(start)
	s.cal.ticks(setupTicks)
	factor := s.cal.factor(time.Time{}, time.Now())
	return s, time.Duration(float64(took) / factor), nil
}

// setupTicks is the number of calibration samples on each side of a
// set-up.
const setupTicks = 20

// measurement is one reported value.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	workload  string
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
	// spread holds, for latency metrics, the quartiles over rounds and the
	// sample count; printed in the table, not part of the contract line.
	spread map[string]roundSummary
	// problems lists every correctness check that failed.
	problems []string
}

func newResult(w workload) *result {
	return &result{workload: w.name, Correct: true, Metrics: map[string]measurement{}, spread: map[string]roundSummary{}}
}

func (r *result) set(name string, v float64) {
	d, ok := metricByName[name]
	if !ok {
		panic("bench: metric " + name + " is not declared in metrics.go")
	}
	r.Metrics[name] = measurement{Value: v, Unit: d.Unit}
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// addLane reports one binding's closed-loop lane: the p50 under its
// end-to-end name, the completed operations per second beside it in the
// table.
func (r *result) addLane(key string, l *lane) {
	r.Attempted += l.attempted
	r.Failed += l.failed
	p50 := summarizeRounds(l.p50s, len(l.all))
	p50.PerSecond = median(l.rates)
	r.set(key+"_p50_us", p50.Median)
	r.spread[key+"_p50_us"] = p50
}

// window brackets a measured window with the server child's CPU time.
type window struct {
	s          *session
	pid        int
	start      time.Time
	elapsed    time.Duration
	cpu0, cpu1 time.Duration
	rssMB      float64
	err        error
}

func beginWindow(s *session) *window {
	pid := s.cl.server.hello.PID
	cpu, err := procCPU(pid)
	return &window{s: s, pid: pid, start: time.Now(), cpu0: cpu, err: err}
}

// stop closes the window: the server child's CPU and peak RSS are sampled
// at this edge.
func (w *window) stop() {
	w.elapsed = time.Since(w.start)
	var err error
	if w.cpu1, err = procCPU(w.pid); err != nil && w.err == nil {
		w.err = err
	}
	if w.rssMB, err = procPeakRSSMB(w.pid); err != nil && w.err == nil {
		w.err = err
	}
}

// report sets the operator's two metrics: what the server child spent per
// completed operation (at the nominal clock), and how large it grew.
func (w *window) report(r *result, ops int) {
	if w.err != nil {
		r.fail("sampling the server child: %v", w.err)
	}
	if ops == 0 {
		r.fail("no operation completed")
		ops = 1
	}
	factor := w.s.cal.factor(w.start, w.start.Add(w.elapsed))
	fmt.Fprintf(logOut, "bench: %s window: clock factor %.3f (times were divided by it; above 1 the machine ran slower than nominal)\n", r.workload, factor)
	r.set("server_cpu_us_per_op", float64(w.cpu1-w.cpu0)/float64(time.Microsecond)/float64(ops)/factor)
	r.set("server_peak_rss_mb", w.rssMB)
}

// runWorkload sets w up opt.setups() times (reporting the median as
// setup_s), measures one window on the last session, and — in trace mode —
// runs the traced pass instead and reports the per-layer metrics.
func runWorkload(w workload, opt options) (*result, error) {
	if opt.trace {
		// The traced pass dials and connects inside its own phases.
		w.setup = func(*session, workload) error { return nil }
	}
	var setups []float64
	var s *session
	for i := 0; i < opt.setups(); i++ {
		if s != nil {
			s.close()
		}
		var d time.Duration
		var err error
		if s, d, err = setUp(w, opt, w.follower || opt.trace); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer s.close()
	if opt.trace {
		return runTraced(s, w)
	}
	res, err := w.run(s, w)
	if err != nil {
		return nil, err
	}
	res.set("setup_s", median(setups))
	if res.Failed > 0 {
		res.fail("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return res, nil
}

// printTable writes the human-readable form of a result to out.
func printTable(out *os.File, r *result, defs []metricDef) {
	fmt.Fprintf(out, "workload %s: correct=%v attempted=%d failed=%d\n", r.workload, r.Correct, r.Attempted, r.Failed)
	for _, p := range r.problems {
		fmt.Fprintf(out, "  PROBLEM: %s\n", p)
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-40s %14.4f %-8s", d.Name, m.Value, d.Unit)
		if d.Bound > 0 {
			line += fmt.Sprintf(" %s is better, bound %.0f%%", d.Better, d.Bound*100)
		}
		if sp, ok := r.spread[d.Name]; ok {
			line += fmt.Sprintf("  [rounds q1 %.2f q3 %.2f, %d rounds, n=%d, %.1f/s]", sp.Q1, sp.Q3, sp.Rounds, sp.Samples, sp.PerSecond)
		}
		fmt.Fprintln(out, line)
	}
}

// validate checks that r carries exactly the metrics of its mode, each a
// finite number; a missing one is reported as a problem and emitted as 0 so
// the result line still names every metric.
func validate(r *result, defs []metricDef) {
	want := make(map[string]bool, len(defs))
	for _, d := range defs {
		want[d.Name] = true
		m, ok := r.Metrics[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.fail("metric %s has no finite value", d.Name)
			r.Metrics[d.Name] = measurement{Unit: d.Unit}
		}
	}
	for name := range r.Metrics {
		if !want[name] {
			r.fail("metric %s does not belong to this mode", name)
			delete(r.Metrics, name)
		}
	}
}

func main() {
	childMain()

	var opt options
	var workloadName string
	var seconds int
	var trace int
	var aa, printJSON bool
	flag.StringVar(&workloadName, "workload", "", "run only this workload (default: all)")
	flag.Uint64Var(&opt.seed, "seed", 1, "seed for payload bytes, method names and edit order")
	flag.IntVar(&seconds, "seconds", runSeconds, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass and the per-layer metrics")
	flag.StringVar(&opt.spans, "spans", "", "with -trace 1, write the recorded spans and path budgets to this file")
	flag.BoolVar(&opt.quick, "quick", false, "sub-second smoke shape (fewer watchers, one set-up)")
	flag.BoolVar(&aa, "aa", false, "run the whole suite twice and compare the two against each metric's bound")
	flag.BoolVar(&printJSON, "print-benchmark-json", false, "print BENCHMARK.json as this program defines it and exit")
	flag.Parse()

	if printJSON {
		fmt.Println(benchmarkJSON())
		return
	}
	opt.window = time.Duration(seconds) * time.Second
	opt.trace = trace == 1
	if opt.quick {
		opt.window = 500 * time.Millisecond
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1, -trace 0 or 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procsPerSide())
	if err := pinAll(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	livedev.RegisterBinding(livedev.JSONBinding())
	livedev.RegisterBinding(livedev.H2BBinding())

	selected := workloads
	if workloadName != "" {
		w, ok := findWorkload(workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: no workload %q\n", workloadName)
			os.Exit(2)
		}
		selected = []workload{w}
	}
	fmt.Fprintf(logOut, "bench: nproc=%d, GOMAXPROCS=%d per side, all processes pinned to CPUs %v, %s, loopback only, seed %d, window %s\n",
		nproc(), procsPerSide(), benchCPUs, runtime.Version(), opt.seed, opt.window)

	if aa {
		os.Exit(runAA(selected, opt))
	}
	defs := endToEndDefs
	if opt.trace {
		defs = perLayerDefs
	}
	var last []byte
	all := map[string]*result{}
	for _, w := range selected {
		r, err := runWorkload(w, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		validate(r, defs)
		printTable(os.Stdout, r, defs)
		all[w.name] = r
		last, _ = json.Marshal(r)
	}
	// The last line of standard output is the machine-readable result: the
	// single workload's object, or an object of them when all were run.
	if len(selected) > 1 {
		last, _ = json.Marshal(all)
	}
	fmt.Println(string(last))
}
