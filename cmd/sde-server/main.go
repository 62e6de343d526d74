// Command sde-server runs a live SDE server: it registers calculator
// classes with the SOAP, CORBA, JSON, and h2b (multiplexed binary)
// subsystems, prints the published interface URLs, and (with -live) keeps
// mutating the server interface the way a developer editing the class
// would, so connected cde-client processes can observe live updates and
// stale-call recovery.
//
// Usage:
//
//	sde-server [-iface ADDR] [-http ADDR] [-timeout D] [-data-dir DIR]
//	           [-sync none|group|always] [-live] [-duration D]
//	           [-max-watcher-lag N] [-watch-write-timeout D] [-follow URL]
//	           [-drain-timeout D]
//
// SIGTERM and SIGINT drain before exiting: registrations and new HTTP
// connections are refused, in-flight calls run to completion (bounded by
// -drain-timeout), held watch streams end with a terminal draining event
// so clients reconnect to another replica, and the WAL is flushed. See
// docs/ops.md.
//
// With -data-dir the publication store is durable (snapshot + WAL): a
// restarted sde-server resumes its epoch sequence, so watch clients ride
// journal replay across the restart instead of refetching snapshots.
// -sync picks the durability of the publication ack (group = group-commit
// fsync). -max-watcher-lag and -watch-write-timeout are the watch-stream
// backpressure valves: a streaming watcher pending more than N events, or
// unable to absorb a write within D, is evicted with a terminal event and
// reconnects through ordinary replay. SIGQUIT dumps the store's counters
// — the durability, replication, and watch fan-out blocks included —
// without stopping the server.
//
// With -follow the process is a read-only replica instead: no classes are
// registered; the leader's all-paths watch stream is applied and the
// replicated documents (GETs, SSE watch streams) are served under the
// leader's restart generation, publications answered with 421 naming the
// leader. Combine with -data-dir so a restarted replica resumes from its
// durable epoch. See docs/replication.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/h2b"
	"livedev/internal/ifsvr"
	"livedev/internal/jsonb"
)

func main() {
	os.Exit(run())
}

func run() int {
	ifaceAddr := flag.String("iface", "127.0.0.1:0", "interface-server listen address")
	httpAddr := flag.String("http", "", "HTTP endpoint listen address (SOAP/JSON handlers)")
	corbaAddr := flag.String("corba", "127.0.0.1:0", "CORBA endpoint listen address")
	timeout := flag.Duration("timeout", 500*time.Millisecond, "publication stability timeout (Section 5.6)")
	historyLen := flag.Int("history-len", 0, "publication-store replay journal capacity (0 = default, negative disables)")
	dataDir := flag.String("data-dir", "", "durable publication-store directory (snapshot + WAL; empty = in-memory)")
	syncMode := flag.String("sync", "", "durable-store sync policy: none, group (ack after group-commit fsync), or always (empty = store default)")
	maxLag := flag.Int("max-watcher-lag", 0, "evict a streaming watcher pending more than this many events (0 = unbounded)")
	watchWriteTimeout := flag.Duration("watch-write-timeout", 0, "per-write deadline on held watch streams (0 = default, negative disables)")
	live := flag.Bool("live", false, "keep editing the server interface live")
	duration := flag.Duration("duration", 0, "exit after this long (0 = run until interrupted)")
	follow := flag.String("follow", "", "run as a read-only replica of the leader interface server at this base URL")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-drain deadline on SIGTERM/SIGINT (held streams get a terminal draining event)")
	flag.Parse()

	var syncPolicy ifsvr.SyncPolicy
	if *syncMode != "" {
		var err error
		if syncPolicy, err = ifsvr.ParseSyncPolicy(*syncMode); err != nil {
			fmt.Fprintln(os.Stderr, "sde-server:", err)
			return 2
		}
	}

	core.RegisterBinding(jsonb.New())
	core.RegisterBinding(h2b.New())

	mgr, err := core.NewManager(core.Config{
		InterfaceAddr:     *ifaceAddr,
		HTTPAddr:          *httpAddr,
		CORBAAddr:         *corbaAddr,
		Timeout:           *timeout,
		HistoryLen:        *historyLen,
		DataDir:           *dataDir,
		Sync:              syncPolicy,
		FollowURL:         *follow,
		MaxWatcherLag:     *maxLag,
		WatchWriteTimeout: *watchWriteTimeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sde-server:", err)
		return 1
	}
	defer func() { _ = mgr.Close() }()

	if *follow != "" {
		return runFollower(mgr, *duration, *drainTimeout)
	}

	// One calculator class per binding (one manager slot per class), all
	// with the same add; the SOAP class also greets, and is the one -live
	// edits.
	greet := dyn.MethodSpec{
		Name:        "greet",
		Params:      []dyn.Param{{Name: "name", Type: dyn.StringT}},
		Result:      dyn.StringT,
		Distributed: true,
		Body: func(_ *dyn.Instance, args []dyn.Value) (dyn.Value, error) {
			return dyn.StringValue("hello, " + args[0].Str()), nil
		},
	}
	var srvs []core.Server
	for _, c := range []struct {
		name  string
		tech  core.Technology
		extra []dyn.MethodSpec
	}{{"Calc", core.TechSOAP, []dyn.MethodSpec{greet}}, {"CalcCorba", core.TechCORBA, nil},
		{"CalcJSON", jsonb.Name, nil}, {"CalcH2B", h2b.Name, nil}} {
		srv, err := serveCalc(mgr, c.name, c.tech, c.extra)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sde-server:", err)
			return 1
		}
		srvs = append(srvs, srv)
	}
	soapSrv, cs, jsonSrv, hs := srvs[0], srvs[1].(*core.CORBAServer), srvs[2], srvs[3].(*h2b.Server)
	class := soapSrv.Class()
	addID, _ := class.MethodIDByName("add")

	fmt.Println("SDE server running")
	if *dataDir != "" {
		fmt.Printf("  data dir: %s (store generation %d, epoch %d)\n",
			*dataDir, mgr.Store().Generation(), mgr.Store().Epoch())
		if d := mgr.Store().Stats().Durability; d != nil {
			fmt.Printf("  durability: sync=%s (SIGQUIT dumps store stats)\n", d.Policy)
		}
	}
	fmt.Println("  WSDL:", soapSrv.InterfaceURL())
	fmt.Println("  SOAP endpoint:", soapSrv.(*core.SOAPServer).Endpoint())
	fmt.Println("  IDL: ", cs.InterfaceURL())
	fmt.Println("  IOR: ", cs.IORURL())
	fmt.Println("  JSON doc:", jsonSrv.InterfaceURL())
	fmt.Println("  JSON endpoint:", jsonSrv.(*jsonb.Server).Endpoint())
	fmt.Println("  H2B doc: ", hs.InterfaceURL())
	fmt.Println("  H2B endpoint:", hs.Endpoint(), "(mux", hs.MuxAddr()+")")

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	// SIGQUIT dumps the publication store's counters (including the
	// durability block: lsns, fsyncs, group-commit batch sizes)
	// without stopping the server — the live-ops view of -sync.
	statsSig := make(chan os.Signal, 1)
	signal.Notify(statsSig, syscall.SIGQUIT)

	var deadline <-chan time.Time
	if *duration > 0 {
		deadline = time.After(*duration)
	}

	ticker := time.NewTicker(2 * time.Second)
	defer ticker.Stop()
	step := 0
	for {
		select {
		case <-stop:
			return drainAndExit(mgr, *drainTimeout)
		case <-statsSig:
			dumpStats(mgr)
		case <-deadline:
			return 0
		case <-ticker.C:
			if !*live {
				continue
			}
			// A developer editing the class: rename add back and forth and
			// evolve greet's behaviour.
			step++
			var err error
			if step%2 == 1 {
				err = class.RenameMethod(addID, "plus")
			} else {
				err = class.RenameMethod(addID, "add")
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "live edit:", err)
				continue
			}
			fmt.Printf("live edit %d applied; interface version now %d (publishes after %v of stability)\n",
				step, class.InterfaceVersion(), *timeout)
			st := soapSrv.Publisher().Stats()
			fmt.Printf("  publisher: %d published, %d skipped, %d forced\n",
				st.Published, st.SkippedCurrent, st.Forced)
		}
	}
}

// serveCalc registers a calculator class named name with tech and creates
// its instance: add(a, b int32) int32, then the extra methods.
func serveCalc(mgr *core.Manager, name string, tech core.Technology, extra []dyn.MethodSpec) (core.Server, error) {
	class := dyn.NewClass(name)
	for _, spec := range append([]dyn.MethodSpec{{
		Name:        "add",
		Params:      []dyn.Param{{Name: "a", Type: dyn.Int32T}, {Name: "b", Type: dyn.Int32T}},
		Result:      dyn.Int32T,
		Distributed: true,
		Body: func(_ *dyn.Instance, args []dyn.Value) (dyn.Value, error) {
			return dyn.Int32Value(args[0].Int32() + args[1].Int32()), nil
		},
	}}, extra...) {
		if _, err := class.AddMethod(spec); err != nil {
			return nil, err
		}
	}
	srv, err := mgr.Register(class, tech)
	if err != nil {
		return nil, err
	}
	_, err = srv.CreateInstance()
	return srv, err
}

// dumpStats is the SIGQUIT dump of the leader and follower loops alike:
// the publication store's counters, the durability and replication blocks
// included, as indented JSON on stdout.
func dumpStats(mgr *core.Manager) {
	data, err := json.MarshalIndent(mgr.Store().Stats(), "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "sde-server: stats:", err)
		return
	}
	fmt.Printf("store stats:\n%s\n", data)
}

// drainAndExit is the signal path: drain gracefully — stop accepting new
// work, finish in-flight calls, end held watch streams with a terminal
// draining event so clients reconnect elsewhere, flush the WAL — then stop.
func drainAndExit(mgr *core.Manager, drainTimeout time.Duration) int {
	fmt.Println("\ndraining (in-flight calls finish, held streams get a terminal event)")
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := mgr.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "sde-server: drain:", err)
	}
	if err := mgr.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, "sde-server: stop:", err)
		return 1
	}
	fmt.Println("shut down cleanly")
	return 0
}

// runFollower is the -follow main loop: print the replica's identity,
// dump replication stats on SIGQUIT, run until interrupted.
func runFollower(mgr *core.Manager, duration, drainTimeout time.Duration) int {
	f := mgr.Follower()
	fmt.Println("SDE replica running (read-only)")
	fmt.Println("  leader:   ", f.Leader())
	fmt.Println("  serving:  ", mgr.InterfaceBaseURL())
	fmt.Printf("  generation %d, replication lag %d epochs (SIGQUIT dumps store stats)\n",
		f.Generation(), f.Lag())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	statsSig := make(chan os.Signal, 1)
	signal.Notify(statsSig, syscall.SIGQUIT)

	var deadline <-chan time.Time
	if duration > 0 {
		deadline = time.After(duration)
	}
	for {
		select {
		case <-stop:
			return drainAndExit(mgr, drainTimeout)
		case <-deadline:
			return 0
		case <-statsSig:
			dumpStats(mgr)
		}
	}
}
