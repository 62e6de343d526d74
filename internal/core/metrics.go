package core

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// serveMetrics renders the manager's operational counters in the plain
// text exposition format (one `name{labels} value` line per sample) so any
// scraper — or a human with curl — can watch the ops plane described in
// docs/ops.md. Everything here is a snapshot of counters the subsystems
// already keep: every managed server's call outcomes, Store.Stats for the
// publication core, WAL and replication blocks, the fan-out plane, plus the
// endpoint mux's per-path counters.
func (m *Manager) serveMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder

	// Lifecycle: up is 1 once Probe passes, 0 otherwise; draining flips
	// to 1 for the drain window so scrapers see the handoff coming.
	up := 0
	if m.Probe() == nil {
		up = 1
	}
	draining := 0
	if m.Draining() {
		draining = 1
	}
	fmt.Fprintf(&b, "livedev_up %d\n", up)
	fmt.Fprintf(&b, "livedev_draining %d\n", draining)

	// Calls by outcome, from each server's one counter set, so every
	// transport is covered — IIOP and the h2b mux included, which never
	// touch the endpoint mux below. Sorted for stable scrape output.
	servers := m.Servers()
	sort.Slice(servers, func(i, j int) bool { return servers[i].Class().Name() < servers[j].Class().Name() })
	for _, srv := range servers {
		st := srv.CallStats()
		for _, c := range []struct {
			outcome Outcome
			n       uint64
		}{
			{OutcomeOK, st.Calls}, {OutcomeAppFault, st.AppFaults}, {OutcomeStale, st.StaleCalls},
			{OutcomeMalformed, st.Malformed}, {OutcomeInactive, st.Inactive},
		} {
			fmt.Fprintf(&b, "livedev_calls_total{class=%q,binding=%q,outcome=%q} %d\n",
				srv.Class().Name(), srv.Technology(), c.outcome, c.n)
		}
	}

	// HTTP-mounted endpoint traffic.
	ms := m.httpMux.stats()
	sort.Slice(ms, func(i, j int) bool { return ms[i].path < ms[j].path })
	for _, s := range ms {
		fmt.Fprintf(&b, "livedev_endpoint_requests_total{path=%q} %d\n", s.path, s.requests)
		fmt.Fprintf(&b, "livedev_endpoint_errors_total{path=%q} %d\n", s.path, s.errors_)
	}

	st := m.store.Stats()

	// Publication core.
	fmt.Fprintf(&b, "livedev_store_publishes_total %d\n", st.Publishes)
	fmt.Fprintf(&b, "livedev_store_commits_total %d\n", st.Commits)
	fmt.Fprintf(&b, "livedev_store_epoch %d\n", st.Epoch)
	fmt.Fprintf(&b, "livedev_store_generation %d\n", st.Generation)
	fmt.Fprintf(&b, "livedev_store_journal_depth %d\n", st.JournalDepth)
	fmt.Fprintf(&b, "livedev_store_persist_errors_total %d\n", st.PersistErrors)

	// Fan-out plane: watcher population plus the backpressure valves.
	fmt.Fprintf(&b, "livedev_watchers %d\n", st.Fanout.Watchers)
	fmt.Fprintf(&b, "livedev_fanout_streams_total %d\n", st.Fanout.Streams)
	fmt.Fprintf(&b, "livedev_fanout_events_total %d\n", st.Fanout.Events)
	fmt.Fprintf(&b, "livedev_fanout_evictions_total %d\n", st.Fanout.Evictions)
	fmt.Fprintf(&b, "livedev_fanout_resets_total %d\n", st.Fanout.Resets)

	// WAL durability: append/durable watermarks (their gap is the fsync
	// lag in records), fsync counters, and the mean time an acked commit
	// waited on fsync.
	if d := st.Durability; d != nil {
		fmt.Fprintf(&b, "livedev_wal_last_lsn %d\n", d.LastLSN)
		fmt.Fprintf(&b, "livedev_wal_durable_lsn %d\n", d.DurableLSN)
		fmt.Fprintf(&b, "livedev_wal_fsync_lag %d\n", d.LastLSN-d.DurableLSN)
		fmt.Fprintf(&b, "livedev_wal_fsyncs_total %d\n", d.Fsyncs)
		fmt.Fprintf(&b, "livedev_wal_sync_waits_total %d\n", d.SyncWaits)
		fmt.Fprintf(&b, "livedev_wal_sync_wait_mean_seconds %g\n", d.SyncWaitMean().Seconds())
		fmt.Fprintf(&b, "livedev_wal_compactions_total %d\n", d.Compactions)
	}

	// Replication: role-labelled lag and the stream position, in store
	// epochs. On a leader, Tails is the connected follower count; on a
	// follower, Lag is how far behind the leader's epoch it is.
	if rp := st.Replication; rp != nil {
		fmt.Fprintf(&b, "livedev_repl_lag{role=%q} %d\n", rp.Role, rp.Lag)
		fmt.Fprintf(&b, "livedev_repl_tails{role=%q} %d\n", rp.Role, rp.Tails)
		fmt.Fprintf(&b, "livedev_repl_lsn %d\n", rp.LSN)
		fmt.Fprintf(&b, "livedev_repl_records_total %d\n", rp.Records)
		fmt.Fprintf(&b, "livedev_repl_reconnects_total %d\n", rp.Reconnects)
		fmt.Fprintf(&b, "livedev_repl_evictions_total %d\n", rp.Evictions)
		fmt.Fprintf(&b, "livedev_repl_resets_total %d\n", rp.Resets)
		fmt.Fprintf(&b, "livedev_repl_frame_errors_total %d\n", rp.FrameErrors)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(b.Len()))
	_, _ = io.WriteString(w, b.String())
}
