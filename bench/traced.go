package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"time"

	"livedev"
	"livedev/internal/cdr"
	"livedev/internal/dyn"
	"livedev/internal/ifsvr"
	"livedev/internal/ior"
	"livedev/internal/orb"
	"livedev/internal/soap"
)

// The traced pass. Tracing is never on while an end-to-end metric is
// measured; this separate pass takes the workload's shape (payload and
// caller count) and prices every layer of all three paths — call, edit,
// stale recovery — from outside: spans around the public functions of each
// layer in a call path recomposed here, captured request bytes replayed
// through the server-side stages in-process, reference transports beneath
// each stack, and the part nobody outside can see reported as an explicit
// residual. Every per-layer metric of BENCHMARK.json comes out of one run.

// The pass splits the window between its phases; the in-process probes
// get a fixed slice each on top.
const (
	callsShare = 0.55
	editsShare = 0.25
	staleShare = 0.08
	probeShare = 0.004 // per in-process probe
	// w1Share is the part of the edit phase spent on the one-watcher
	// calibration that gives fan-out its fixed cost.
	w1Share = 0.35
	// probeRounds is how many interleaved rounds the call probes run.
	probeRounds = 5
	// maxSpanOps bounds the operations per path whose spans are written
	// to the span file; the budgets use all of them.
	maxSpanOps = 2000
)

// probe is one closed-loop measurement of the calls phase.
type probe struct {
	name    string
	call    callFn
	callers int
	lane    lane
	// cpuUS and cpuCalls accumulate the server child's own CPU across this
	// probe's slices (cde probes only).
	cpu      bool
	cpuUS    float64
	cpuCalls int
}

func (p *probe) p50() float64 { return median(p.lane.p50s) }

// errOnly adapts a round trip that returns no value to callFn.
func errOnly(want dyn.Value, fn func() error) callFn {
	return func() (dyn.Value, error) { return want, fn() }
}

func runTraced(s *session, w workload) (*result, error) {
	res := newResult(w)
	rec := newRecorder(1 << 18)
	var budgets []pathBudget

	var err error
	if s.clients, err = dialClients(context.Background(), s.cl.server.hello); err != nil {
		return nil, err
	}
	cb, err := tracedCalls(s, w, res, rec)
	if err != nil {
		return nil, err
	}
	budgets = append(budgets, cb...)
	if err := tracedEdits(s, res); err != nil {
		return nil, err
	}
	sb, err := tracedStale(s, res)
	if err != nil {
		return nil, err
	}
	budgets = append(budgets, sb...)
	method, arg, _ := w.callShape(s.in)
	each := max(5*time.Millisecond, time.Duration(probeShare*float64(s.opt.window)))
	if err := layerProbes(res, &s.cal, s.in, method, slotOf(w), arg, each, s.opt.scaled(recoverCommits), s.cl.workRoot); err != nil {
		return nil, err
	}
	// Every time above is at the nominal clock; this is what they were
	// divided by, over the whole pass.
	res.set("bench.clock_factor", s.cal.factor(time.Time{}, time.Now()))
	if res.Failed > 0 {
		res.fail("%d of %d operations failed", res.Failed, res.Attempted)
	}
	if s.opt.spans != "" {
		if err := writeSpanFile(s.opt.spans, spanFile{Workload: w.name, Seed: s.opt.seed, Budgets: budgets, Spans: firstOps(rec.spans, maxSpanOps)}); err != nil {
			return nil, err
		}
	}
	for _, b := range budgets {
		fmt.Fprintf(logOut, "budget %s: lines sum to %.2f us, measured p50 %.2f us\n", b.Path, b.TotalUS, b.MeasuredUS)
		for _, l := range b.Lines {
			fmt.Fprintf(logOut, "    %-44s %10.2f us  %5.1f%%\n", l.Stage, l.US, 100*l.US/b.TotalUS)
		}
	}
	return res, nil
}

func slotOf(w workload) int {
	if w.bulk {
		return bulkMethod
	}
	return 0
}

// firstOps keeps the spans of operations numbered below limit within each
// root name (operation ids count up per path).
func firstOps(spans []span, limit uint32) []span {
	var out []span
	remap := make(map[int32]int32)
	for i, sp := range spans {
		if sp.Op >= limit {
			continue
		}
		remap[int32(i)] = int32(len(out))
		if sp.Parent >= 0 {
			sp.Parent = remap[sp.Parent]
		}
		out = append(out, sp)
	}
	return out
}

// paired is the median over rounds of f applied to two probes' per-round
// p50s: a difference or ratio taken inside each round, where both probes
// ran within a few dozen milliseconds of each other, so that a slow spell
// of the machine moves both sides instead of the result.
func paired(a, b *probe, f func(x, y float64) float64) float64 {
	n := min(len(a.lane.p50s), len(b.lane.p50s))
	out := make([]float64, n)
	for i := range out {
		out[i] = f(a.lane.p50s[i], b.lane.p50s[i])
	}
	return median(out)
}

// stageP50 returns the p50 self time in µs of every stage recorded under
// spans rooted at root, the root itself excluded.
func stageP50(self map[string]map[string][]time.Duration, root string) map[string]float64 {
	out := make(map[string]float64)
	for name, ds := range self[root] {
		if name != root {
			out[name] = median(durationsUS(ds))
		}
	}
	return out
}

// tracedCalls runs the calls phase: every binding through the live
// client, the raw protocol client, and the recomposed path with spans on
// and off; the static controls; the reference transports on the same body
// bytes — all interleaved in rounds — then the server-side replay.
func tracedCalls(s *session, w workload, res *result, rec *recorder) ([]pathBudget, error) {
	h := s.cl.server.hello
	method, arg, callers := w.callShape(s.in)
	paths, err := newCallPaths(h, s.clients, method, slotOf(w), arg, s.in.methods)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, p := range paths {
			p.close()
		}
	}()
	staticSOAP, staticCORBA, closeStatic, err := staticPaths(h, method, slotOf(w), arg)
	if err != nil {
		return nil, err
	}
	defer closeStatic()

	enc := cdr.NewEncoder(cdr.BigEndian)
	if err := cdr.EncodeValue(enc, arg); err != nil {
		return nil, err
	}
	cdrBody := append([]byte(nil), enc.Bytes()...)
	hc := &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	defer hc.CloseIdleConnections()
	h2c := h2cClient()
	defer h2c.CloseIdleConnections()
	tcp, closeTCP, err := tcpPingPong(h.Ref.TCP, paths[1].floorBody)
	if err != nil {
		return nil, err
	}
	defer closeTCP()
	iiopCall, closeIIOP, err := iiopEcho(h.Ref.IIOP, cdrBody)
	if err != nil {
		return nil, err
	}
	defer closeIIOP()
	h2xCall, closeH2X, err := h2xEcho(h.Ref.H2X, cdrBody)
	if err != nil {
		return nil, err
	}
	defer closeH2X()

	var probes []*probe
	add := func(name string, call callFn, callers int) *probe {
		p := &probe{name: name, call: call, callers: callers}
		probes = append(probes, p)
		return p
	}
	// Each binding's probes run back to back, its transport floor — the
	// reference transport carrying the same body bytes with no codec and no
	// dispatch behind it — among them, so that differences between them are
	// taken within one round, under one state of the machine.
	type bindingProbes struct{ cde, raw, on, off, floor *probe }
	bp := make([]bindingProbes, len(bindings))
	ops := make([]uint32, len(bindings))
	floorCalls := []func() error{
		httpPost(hc, h.Ref.HTTP1, paths[0].floorBody),
		iiopCall,
		httpPost(hc, h.Ref.HTTP1, paths[2].floorBody),
		h2xCall,
	}
	floorNames := []string{"ref http/1.1 POST echo", "iiop echo (no dispatch)", "ref http/1.1 POST echo", "h2x echo (no dispatch)"}
	for b, bd := range bindings {
		p := paths[b]
		bp[b].cde = add("cde."+bd.key, p.cde, callers)
		bp[b].cde.cpu = true
		bp[b].raw = add("raw."+bd.key, p.raw, callers)
		bp[b].on = add("spans_on."+bd.key, func() (dyn.Value, error) {
			v, err := p.traced(rec, ops[b])
			ops[b]++
			return v, err
		}, 1)
		bp[b].off = add("spans_off."+bd.key, func() (dyn.Value, error) { return p.traced(nil, 0) }, 1)
		bp[b].floor = add("floor."+bd.key, errOnly(arg, floorCalls[b]), 1)
	}
	stSOAP := add("static.soap", staticSOAP, 1)
	rawSOAP := add("raw.soap.again", paths[0].raw, 1)
	stCORBA := add("static.corba", staticCORBA, 1)
	rawCORBA := add("raw.corba.again", paths[1].raw, 1)
	refTCP := add("ref.tcp", errOnly(arg, tcp), 1)
	refH2C := add("ref.h2c", errOnly(arg, httpPost(h2c, h.Ref.H2C, cdrBody)), 1)
	par := max(2, nproc())
	iiopPar := add("iiop.echo.par", errOnly(arg, iiopCall), par)
	h2xPar := add("h2x.echo.par", errOnly(arg, h2xCall), par)

	for _, p := range probes {
		if r := runSlice(&s.cal, p.call, arg, 0, s.opt.scaled(20), p.callers); r.failed > 0 {
			return nil, fmt.Errorf("bench: probe %s warm-up: %d of %d round trips failed", p.name, r.failed, r.attempted)
		}
	}
	// Spans recorded during warm-up would skew nothing but are not part
	// of the measured rounds either: start the trace here.
	rec.spans = rec.spans[:0]
	for b := range ops {
		ops[b] = 0
	}
	slice := time.Duration(callsShare * float64(s.opt.window) / float64(len(probes)*probeRounds))
	for r := 0; r < probeRounds; r++ {
		for k := range probes {
			p := probes[(k+r)%len(probes)]
			var cpu0 int64
			if p.cpu {
				a, err := s.cl.server.do("stats")
				if err != nil {
					return nil, err
				}
				cpu0 = a.CPUUS
			}
			sr := runSlice(&s.cal, p.call, arg, slice, 0, p.callers)
			if p.cpu {
				a, err := s.cl.server.do("stats")
				if err != nil {
					return nil, err
				}
				p.cpuUS += float64(a.CPUUS-cpu0) / sr.factor
				p.cpuCalls += sr.attempted - sr.failed
			}
			p.lane.add(sr)
		}
	}
	for _, p := range probes {
		res.Attempted += p.lane.attempted
		res.Failed += p.lane.failed
		if p.lane.failed > 0 {
			res.fail("probe %s: %d of %d round trips failed", p.name, p.lane.failed, p.lane.attempted)
		}
	}

	// Server-side stages: replay the captured request of each path.
	replayFor := max(5*time.Millisecond, slice/2)
	for _, p := range paths {
		var op uint32
		for deadline := time.Now().Add(replayFor); time.Now().Before(deadline) || op < 5; op++ {
			if err := p.replay(rec, op); err != nil {
				return nil, fmt.Errorf("bench: %s replay: %w", bindings[p.b].tech, err)
			}
		}
	}

	rate := func(p *probe) float64 { return median(p.lane.rates) }
	res.set("soap.raw_rtt_p50_us", bp[0].raw.p50())
	res.set("orb.raw_rtt_p50_us", bp[1].raw.p50())
	res.set("jsonb.raw_rtt_p50_us", bp[2].raw.p50())
	res.set("h2b.raw_rtt_p50_us", bp[3].raw.p50())
	res.set("static.soap_rtt_p50_us", stSOAP.p50())
	res.set("static.corba_rtt_p50_us", stCORBA.p50())
	ratio := func(x, y float64) float64 { return x / y }
	minus := func(x, y float64) float64 { return x - y }
	res.set("core.sde_overhead_soap_ratio", paired(rawSOAP, stSOAP, ratio))
	res.set("core.sde_overhead_corba_ratio", paired(rawCORBA, stCORBA, ratio))
	res.set("ref.tcp_pingpong_rtt_us", refTCP.p50())
	res.set("ref.http1_post_rtt_us", bp[0].floor.p50())
	res.set("ref.h2c_stdlib_post_rtt_us", refH2C.p50())
	res.set("iiop.invoke_rtt_us", bp[1].floor.p50())
	res.set("iiop.invoke_per_s", rate(iiopPar))
	res.set("h2x.do_rtt_us", bp[3].floor.p50())
	res.set("h2x.do_per_s", rate(h2xPar))

	var budgets []pathBudget
	overhead := 0.0
	self := selfTimes(rec.spans)
	for b, bd := range bindings {
		cde := bp[b].cde.p50()
		cdeOver := paired(bp[b].cde, bp[b].raw, minus)
		res.set("cde."+bd.key+"_call_overhead_us", cdeOver)
		res.set("core.server_cpu_us_per_call_"+bd.key, bp[b].cde.cpuUS/float64(max(1, bp[b].cde.cpuCalls)))
		res.set("bench."+bd.key+"_rtt_tail_us", tail(bp[b].cde.lane.all, 0.99))
		res.set("bench."+bd.key+"_calls_per_s", rate(bp[b].cde))
		overhead += paired(bp[b].on, bp[b].off, func(on, off float64) float64 { return 100 * (on - off) / off })

		// The budget of the live client's p50: what it adds over the raw
		// protocol client, the client-side stages (spans of the recomposed
		// path), the transport floor, the server-side stages (replayed),
		// and what is left — the part of the raw round trip spent in the
		// server child's handler, mux and sockets beyond the floor, visible
		// from outside only as this residual. Differences are taken within
		// rounds, so the lines sum to a total that is itself an estimate of
		// the measured p50 printed beside it.
		client := stageP50(self, "call."+bd.key)
		server := stageP50(self, "server_replay."+bd.key)
		lines := []budgetLine{{Stage: "cde.Client over raw protocol client", US: cdeOver}}
		known := 0.0
		for _, part := range []struct {
			side   string
			stages map[string]float64
		}{{"client", client}, {"server (replayed)", server}} {
			for _, name := range sortedKeys(part.stages) {
				if name == "transport."+bd.key {
					continue
				}
				lines = append(lines, budgetLine{Stage: part.side + " " + name, US: part.stages[name]})
				known += part.stages[name]
			}
		}
		floor := bp[b].floor.p50()
		lines = append(lines, budgetLine{Stage: "transport floor: " + floorNames[b], US: floor})
		residual := paired(bp[b].raw, bp[b].floor, minus) - known
		lines = append(lines, budgetLine{Stage: "residual: core handler, mux, sockets beyond the floor", US: residual})
		res.set("core."+bd.key+"_handler_residual_us", residual)
		budgets = append(budgets, newBudget("call."+bd.key, cde, lines))
	}
	res.set("bench.trace_overhead_pct", overhead/float64(len(bindings)))
	return budgets, nil
}

// tracedEdits runs the edit phase: a one-watcher-per-document calibration
// for the fixed cost of an edit becoming visible (and the follower's extra
// hop), then the full population for the fan-out slope.
func tracedEdits(s *session, res *result) error {
	f := newFanout()
	s.fan = f
	hc := &http.Client{Timeout: 10 * time.Second}
	budget := editsShare * s.opt.window.Seconds()
	perDoc := s.opt.watchers() / len(bindings)

	if err := f.connect(s, fanSpec{raw: 1, followerRaw: 1}); err != nil {
		return err
	}
	w1Leader, w1Follower := append([]int(nil), f.leaderRx...), append([]int(nil), f.followerRx...)
	phase := func(n int) ([]edit, error) {
		before := f.delivered.Load()
		edits, err := issueEdits(s, max(n, 2*len(bindings)), editRate)
		if err != nil {
			return nil, err
		}
		f.awaitDelivered(before+f.expectedDeliveries(edits), 10*time.Second)
		return edits, nil
	}
	if err := warmUpEdits(s); err != nil {
		return err
	}
	edits1, err := phase(int(w1Share * budget * editRate))
	if err != nil {
		return err
	}
	lagMax := uint64(0)
	noteLag := func() {
		if st, err := storeStats(hc, s.cl.follower.hello.Iface); err == nil && st.Replication != nil {
			lagMax = max(lagMax, st.Replication.Lag)
		}
	}
	noteLag()

	if err := f.connect(s, fanSpec{raw: perDoc - 3, stream: true, client: true}); err != nil {
		return err
	}
	if err := warmUpEdits(s); err != nil { // proves the new watchers live
		return err
	}
	before, err := storeStats(hc, s.cl.server.hello.Iface)
	if err != nil {
		return err
	}
	cpu0, t0 := selfCPU(), time.Now()
	edits2, err := phase(int((1 - w1Share) * budget * editRate))
	if err != nil {
		return err
	}
	genCPU, elapsed := selfCPU()-cpu0, time.Since(t0)
	factor := s.cal.factor(t0, time.Now())
	noteLag()
	leader, follower := checkStats(res, s.cl)
	f.close()
	f.checkContent(res, s.cl.server.hello)

	v1 := f.analyse(res, &s.cal, edits1, w1Leader, w1Follower)
	v2 := f.analyse(res, &s.cal, edits2, f.leaderRx, w1Follower)
	res.Attempted += v1.attempted + v2.attempted
	res.Failed += v1.failed + v2.failed
	pool := func(xs [][]float64) []float64 {
		var out []float64
		for _, x := range xs {
			out = append(out, x...)
		}
		return out
	}
	w1 := median(pool(v1.leaderUS))
	replica := median(append(pool(v1.followerUS), pool(v2.followerUS)...))
	visible := pool(v2.leaderUS)
	wN := median(visible)
	res.set("ifsvr.visible_w1_us", w1)
	res.set("repl.replica_visible_p50_us", replica)
	res.set("repl.extra_hop_p50_us", replica-w1)
	res.set("bench.edit_visible_p50_us", wN)
	res.set("bench.edit_visible_tail_us", tail(visible, 0.95))
	res.set("ifsvr.fanout_us_per_watcher", (wN-w1)/float64(perDoc-1))
	res.set("cde.install_lag_us", median(v2.clientLagUS))
	var late, publish []float64
	for _, e := range edits2 {
		late = append(late, float64(e.late)/float64(time.Microsecond))
		publish = append(publish, float64(e.ack.NS)/1e3/factor)
	}
	res.set("bench.generator_late_p99_us", tail(late, 0.99))
	res.set("core.publish_now_us", median(publish))
	res.set("bench.generator_cpu_share", genCPU.Seconds()/elapsed.Seconds())
	delivered := 0
	for _, d := range v2.delivered {
		delivered += d
	}
	res.set("bench.client_cpu_us_per_op", float64(genCPU)/float64(time.Microsecond)/float64(max(1, delivered))/factor)
	res.set("ifsvr.wakes_per_edit", float64(leader.Fanout.Wakes-before.Fanout.Wakes)/float64(len(edits2)))
	res.set("ifsvr.batch_events_p50", float64(leader.Fanout.BatchP50))
	res.set("ifsvr.heartbeats", float64(leader.Fanout.Heartbeats))
	res.set("ifsvr.evictions", float64(leader.Fanout.Evictions))
	res.set("ifsvr.resets", float64(leader.Fanout.Resets))
	res.set("repl.lag_records_max", float64(lagMax))
	rs := follower.Replication
	if rs == nil {
		res.fail("follower /.stats carries no Replication block")
		rs = &ifsvr.ReplicationStats{}
	}
	res.set("repl.bootstraps", float64(rs.Bootstraps))
	res.set("repl.reconnects", float64(rs.Reconnects))
	res.set("repl.frame_errors", float64(rs.FrameErrors))
	return nil
}

// loopUS times fn n times, calibrating the clock before each, and returns
// the median in µs at the nominal clock.
func loopUS(cal *calib, n int, fn func() error) (float64, error) {
	xs := make([]float64, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		cal.tick()
		t0 := time.Now()
		if err := fn(); err != nil {
			return math.NaN(), err
		}
		xs = append(xs, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return median(xs) / cal.factor(start, time.Now()), nil
}

// tracedStale runs the stale-recovery phase on every binding, then prices
// its parts on SOAP and CORBA: the fault round trip with nothing to
// publish, and the client's refresh.
func tracedStale(s *session, res *result) ([]pathBudget, error) {
	h := s.cl.server.hello
	ctx := context.Background()
	slice := time.Duration(staleShare * float64(s.opt.window) / float64(len(bindings)))
	before, err := s.cl.server.do("stats")
	if err != nil {
		return nil, err
	}
	p50 := make([]float64, len(bindings))
	cycles := 0
	for b, bd := range bindings {
		sr, errs := staleSlice(s, b, slice, 0)
		if sr.attempted < warmupCycles {
			more, moreErrs := staleSlice(s, b, 0, warmupCycles-sr.attempted)
			sr.lat, sr.attempted, sr.failed = append(sr.lat, more.lat...), sr.attempted+more.attempted, sr.failed+more.failed
			errs = append(errs, moreErrs...)
		}
		for _, err := range errs {
			res.fail("%s recovery: %v", bd.tech, err)
		}
		res.Attempted += sr.attempted
		res.Failed += sr.failed
		cycles += sr.attempted
		var l lane
		l.add(sr)
		p50[b] = median(l.all)
	}
	after, err := s.cl.server.do("stats")
	if err != nil {
		return nil, err
	}
	forced := uint64(0)
	for tech, st := range after.Publishers {
		forced += st.Forced - before.Publishers[tech].Forced
	}
	res.set("core.forced_publications_per_cycle", float64(forced)/float64(max(1, cycles)))
	res.set("jsonb.stale_recovery_p50_us", p50[2])
	res.set("h2b.stale_recovery_p50_us", p50[3])

	// The fault round trip alone: a raw protocol client calling a name the
	// interface never had, with the publisher idle, so EnsureCurrent is a
	// no-op and only transport + handler + fault codec remain.
	// n samples each: a tenth of a second of the slowest of them, so that
	// one hiccup of the machine does not decide the median.
	n := s.opt.scaled(200)
	hc := &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	defer hc.CloseIdleConnections()
	sc := &soap.Client{Endpoint: h.Bindings["SOAP"].Endpoint, ServiceNS: "urn:" + className(bindings[0]), HTTPClient: hc}
	params := []soap.NamedValue{{Name: "v", Value: s.in.small}}
	soapFault, err := loopUS(&s.cal, n, func() error {
		if _, err := sc.CallContext(ctx, "neverExisted", params, dyn.StringT); !soap.IsNonExistentMethod(err) {
			return fmt.Errorf("bench: SOAP call to a missing method returned %v", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ref, err := ior.ParseString(h.Bindings["CORBA"].IOR)
	if err != nil {
		return nil, err
	}
	oc, err := orb.DialIOR(ref)
	if err != nil {
		return nil, err
	}
	defer oc.Close()
	missing := methodSig("neverExisted", 0)
	args := []dyn.Value{s.in.small}
	orbFault, err := loopUS(&s.cal, n, func() error {
		if _, err := oc.InvokeContext(ctx, missing, args); err == nil {
			return fmt.Errorf("bench: CORBA call to a missing method succeeded")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.set("soap.stale_fault_rtt_us", soapFault)
	res.set("orb.stale_fault_rtt_us", orbFault)

	refresh := make([]float64, 2)
	for b := 0; b < 2; b++ {
		if refresh[b], err = loopUS(&s.cal, n, func() error { return s.clients[b].RefreshContext(ctx) }); err != nil {
			return nil, err
		}
	}
	res.set("cde.refresh_soap_us", refresh[0])
	res.set("cde.refresh_corba_us", refresh[1])

	// Dial: what a client pays before its first call, and before its first
	// pushed view.
	dialMS := func(url string, opts ...livedev.Option) (float64, error) {
		us, err := loopUS(&s.cal, 5, func() error {
			c, err := livedev.Dial(ctx, url, opts...)
			if err != nil {
				return err
			}
			return c.Close()
		})
		return us / 1e3, err
	}
	dialSOAP, err := dialMS(h.Bindings["SOAP"].Doc)
	if err != nil {
		return nil, err
	}
	dialCORBA, err := dialMS(h.Bindings["CORBA"].Doc)
	if err != nil {
		return nil, err
	}
	dialWatch, err := dialMS(h.Bindings["SOAP"].Doc, livedev.WithWatch())
	if err != nil {
		return nil, err
	}
	res.set("cde.dial_soap_ms", dialSOAP)
	res.set("cde.dial_corba_ms", dialCORBA)
	res.set("cde.dial_watch_ms", dialWatch)

	docURL := h.Bindings["SOAP"].Doc
	getDoc, err := loopUS(&s.cal, n, func() error { _, err := ifsvr.FetchContext(ctx, hc, docURL); return err })
	if err != nil {
		return nil, err
	}
	res.set("ifsvr.get_doc_rtt_us", getDoc)
	doc, err := ifsvr.FetchContext(ctx, hc, docURL)
	if err != nil {
		return nil, err
	}
	connect, err := loopUS(&s.cal, 10, func() error {
		sctx, cancel := context.WithCancel(ctx)
		defer cancel()
		got := false
		// Connecting just below the current epoch replays the current
		// version at once; the first event ends the watch.
		err := ifsvr.WatchStream(sctx, hc, docURL, doc.Epoch-1, func(ifsvr.StreamEvent) { got = true; cancel() })
		if !got {
			return fmt.Errorf("bench: stream to %s delivered no event: %w", docURL, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.set("ifsvr.stream_connect_us", connect)

	// The stale budgets: a recovery is the fault round trip, the forced
	// publication inside it, and the client's refresh; the forced
	// publication is not separable from outside, so it is the residual.
	var budgets []pathBudget
	for b, fault := range []float64{soapFault, orbFault} {
		budgets = append(budgets, newBudget("stale."+bindings[b].key, p50[b], []budgetLine{
			{Stage: "fault round trip, nothing to publish", US: fault},
			{Stage: "cde.Client.RefreshContext (fetch, parse, compile)", US: refresh[b]},
			{Stage: "residual: forced generation and publication in the server", US: p50[b] - fault - refresh[b]},
		}))
	}
	return budgets, nil
}
