package main

import (
	"encoding/json"
)

// metricDef declares one metric: the single source BENCHMARK.json is
// printed from (-print-benchmark-json) and every result is checked
// against.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change is rejected; 0 on per-layer ones.
	Bound    float64
	EndToEnd bool
}

// The end-to-end metrics are what the four users of the system see. The
// driver reads every end-to-end metric from every run, so a metric cannot
// exist on one workload only: every workload defines an operation per
// binding — a call, an edit becoming visible on that binding's published
// document, a stale-call recovery — and the same seven names are measured
// on all five:
//
//	<binding>_p50_us   median over rounds of the per-round p50 latency of
//	                   the workload's operation on that binding
//
// Completed operations per second are printed beside each p50 but are not
// a metric of their own: with one closed-loop caller they repeat the p50,
// on edit_fanout the generator fixes them, and on calls_concurrent they
// carry the p50's noise (bench.*_calls_per_s in the traced pass).
//
// Times are at the nominal machine speed (calib.go). A metric has one
// bound for all five workloads, so its noisiest workload sets it. The
// driver accepts a benchmark whose run-to-run spread stays within the
// bound and asks for a third of it; on this repository's 2-core sandbox
// the noisiest workload of every time metric spreads by 5 to 12 % in a
// quiet half hour and by up to 26 % in a noisy one (README.md,
// "Steadiness"), so the times carry the contract's maximum of 25 %, not
// the 10 % the issue hoped for, and the resident set its 15 %.
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, EndToEnd: true},
	{Name: "soap_p50_us", Unit: "us", Better: "lower", Bound: 0.25, EndToEnd: true},
	{Name: "corba_p50_us", Unit: "us", Better: "lower", Bound: 0.25, EndToEnd: true},
	{Name: "json_p50_us", Unit: "us", Better: "lower", Bound: 0.25, EndToEnd: true},
	{Name: "h2b_p50_us", Unit: "us", Better: "lower", Bound: 0.25, EndToEnd: true},
	{Name: "server_cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25, EndToEnd: true},
	{Name: "server_peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15, EndToEnd: true},
}

func layer(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

// The per-layer metrics, grouped by the repo package they price (ref =
// standard-library reference transports built in this directory, bench =
// the harness's own observations). README.md maps each group to the
// end-to-end metric it should move.
var perLayerDefs = []metricDef{
	// dyn
	layer("dyn.invoke_ns", "ns", "lower"),
	layer("dyn.lookup_ns", "ns", "lower"),
	// soap
	layer("soap.build_request_ns", "ns", "lower"),
	layer("soap.parse_request_ns", "ns", "lower"),
	layer("soap.build_response_ns", "ns", "lower"),
	layer("soap.parse_response_ns", "ns", "lower"),
	layer("soap.codec_allocs_per_call", "count", "lower"),
	layer("soap.wire_bytes_per_call", "bytes", "lower"),
	layer("soap.raw_rtt_p50_us", "us", "lower"),
	layer("soap.stale_fault_rtt_us", "us", "lower"),
	// cdr, giop
	layer("cdr.encode_ns", "ns", "lower"),
	layer("cdr.decode_ns", "ns", "lower"),
	layer("cdr.wire_bytes_per_call", "bytes", "lower"),
	layer("giop.encode_request_ns", "ns", "lower"),
	layer("giop.decode_request_ns", "ns", "lower"),
	layer("giop.encode_reply_ns", "ns", "lower"),
	layer("giop.decode_reply_ns", "ns", "lower"),
	// iiop, orb
	layer("iiop.invoke_rtt_us", "us", "lower"),
	layer("iiop.invoke_per_s", "1/s", "higher"),
	layer("orb.raw_rtt_p50_us", "us", "lower"),
	layer("orb.stale_fault_rtt_us", "us", "lower"),
	// jsonb
	layer("jsonb.encode_ns", "ns", "lower"),
	layer("jsonb.decode_ns", "ns", "lower"),
	layer("jsonb.wire_bytes_per_call", "bytes", "lower"),
	layer("jsonb.raw_rtt_p50_us", "us", "lower"),
	layer("jsonb.generate_doc_ns", "ns", "lower"),
	layer("jsonb.parse_doc_ns", "ns", "lower"),
	layer("jsonb.stale_recovery_p50_us", "us", "lower"),
	// h2x, h2b
	layer("h2x.do_rtt_us", "us", "lower"),
	layer("h2x.do_per_s", "1/s", "higher"),
	layer("h2b.raw_rtt_p50_us", "us", "lower"),
	layer("h2b.stale_recovery_p50_us", "us", "lower"),
	// ref
	layer("ref.tcp_pingpong_rtt_us", "us", "lower"),
	layer("ref.http1_post_rtt_us", "us", "lower"),
	layer("ref.h2c_stdlib_post_rtt_us", "us", "lower"),
	// core: what is left of a raw round trip after every stage visible
	// from outside, the server's CPU per call, and Table 1's shape
	layer("core.soap_handler_residual_us", "us", "lower"),
	layer("core.corba_handler_residual_us", "us", "lower"),
	layer("core.json_handler_residual_us", "us", "lower"),
	layer("core.h2b_handler_residual_us", "us", "lower"),
	layer("core.server_cpu_us_per_call_soap", "us", "lower"),
	layer("core.server_cpu_us_per_call_corba", "us", "lower"),
	layer("core.server_cpu_us_per_call_json", "us", "lower"),
	layer("core.server_cpu_us_per_call_h2b", "us", "lower"),
	layer("static.soap_rtt_p50_us", "us", "lower"),
	layer("static.corba_rtt_p50_us", "us", "lower"),
	layer("core.sde_overhead_soap_ratio", "ratio", "lower"),
	layer("core.sde_overhead_corba_ratio", "ratio", "lower"),
	// cde: the live client's cost over the raw protocol client
	layer("cde.soap_call_overhead_us", "us", "lower"),
	layer("cde.corba_call_overhead_us", "us", "lower"),
	layer("cde.json_call_overhead_us", "us", "lower"),
	layer("cde.h2b_call_overhead_us", "us", "lower"),
	// core publication
	layer("core.publish_now_us", "us", "lower"),
	layer("core.ensure_current_idle_ns", "ns", "lower"),
	layer("core.ensure_current_armed_us", "us", "lower"),
	layer("core.forced_publications_per_cycle", "ratio", "lower"),
	// wsdl, idl
	layer("wsdl.generate_ns", "ns", "lower"),
	layer("wsdl.parse_ns", "ns", "lower"),
	layer("idl.generate_ns", "ns", "lower"),
	layer("idl.parse_resolve_ns", "ns", "lower"),
	// cde refresh, dial, install
	layer("cde.refresh_soap_us", "us", "lower"),
	layer("cde.refresh_corba_us", "us", "lower"),
	layer("cde.dial_soap_ms", "ms", "lower"),
	layer("cde.dial_corba_ms", "ms", "lower"),
	layer("cde.dial_watch_ms", "ms", "lower"),
	layer("cde.install_lag_us", "us", "lower"),
	// ifsvr store and wire
	layer("ifsvr.publish_mem_ns", "ns", "lower"),
	layer("ifsvr.publish_wal_ns", "ns", "lower"),
	layer("ifsvr.event_payload_ns", "ns", "lower"),
	layer("ifsvr.replay_events_into_ns", "ns", "lower"),
	layer("ifsvr.get_doc_rtt_us", "us", "lower"),
	layer("ifsvr.stream_connect_us", "us", "lower"),
	layer("ifsvr.open_recover_ms", "ms", "lower"),
	// ifsvr fan-out
	layer("ifsvr.visible_w1_us", "us", "lower"),
	layer("ifsvr.fanout_us_per_watcher", "us", "lower"),
	layer("ifsvr.wakes_per_edit", "count", "lower"),
	layer("ifsvr.batch_events_p50", "count", "lower"),
	layer("ifsvr.heartbeats", "count", "lower"),
	layer("ifsvr.evictions", "count", "lower"),
	layer("ifsvr.resets", "count", "lower"),
	// repl
	layer("repl.encode_commit_frame_ns", "ns", "lower"),
	layer("repl.decode_commit_frame_ns", "ns", "lower"),
	layer("repl.replica_visible_p50_us", "us", "lower"),
	layer("repl.extra_hop_p50_us", "us", "lower"),
	layer("repl.lag_records_max", "count", "lower"),
	layer("repl.bootstraps", "count", "lower"),
	layer("repl.reconnects", "count", "lower"),
	layer("repl.frame_errors", "count", "lower"),
	// bench: tails (the highest percentile, up to p99 for calls and p95 for
	// edits, with at least ten samples beyond it), the generator's own
	// health, and what tracing costs
	layer("bench.soap_rtt_tail_us", "us", "lower"),
	layer("bench.corba_rtt_tail_us", "us", "lower"),
	layer("bench.json_rtt_tail_us", "us", "lower"),
	layer("bench.h2b_rtt_tail_us", "us", "lower"),
	layer("bench.soap_calls_per_s", "1/s", "higher"),
	layer("bench.corba_calls_per_s", "1/s", "higher"),
	layer("bench.json_calls_per_s", "1/s", "higher"),
	layer("bench.h2b_calls_per_s", "1/s", "higher"),
	layer("bench.edit_visible_p50_us", "us", "lower"),
	layer("bench.edit_visible_tail_us", "us", "lower"),
	layer("bench.generator_late_p99_us", "us", "lower"),
	layer("bench.generator_cpu_share", "ratio", "lower"),
	layer("bench.client_cpu_us_per_op", "us", "lower"),
	layer("bench.trace_overhead_pct", "%", "lower"),
	layer("bench.clock_factor", "ratio", "lower"),
}

var metricByName = func() map[string]metricDef {
	m := make(map[string]metricDef)
	for _, d := range endToEndDefs {
		m[d.Name] = d
	}
	for _, d := range perLayerDefs {
		m[d.Name] = d
	}
	return m
}()

// benchmarkJSON renders BENCHMARK.json exactly as the driver's contract
// shapes it.
func benchmarkJSON() string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type pl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []pl     `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEndDefs {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayerDefs {
		doc.PerLayer = append(doc.PerLayer, pl{d.Name, d.Unit, d.Better})
	}
	b, _ := json.MarshalIndent(doc, "", "  ")
	return string(b)
}

// runSeconds is the measured window the driver is told to ask for.
const runSeconds = 15
