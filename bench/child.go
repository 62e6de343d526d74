package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"livedev/internal/core"
	"livedev/internal/h2b"
	"livedev/internal/ifsvr"
	"livedev/internal/jsonb"
	"livedev/internal/repl"
	"livedev/internal/static"
)

// The system under test always runs in child processes: the benchmark
// binary re-execs itself with roleEnv set and becomes a server or a
// follower before any flag is parsed. A child announces its loopback
// addresses as one JSON line on stdout, then serves line-oriented commands
// from stdin, answering each with one JSON ack line. It exits on "quit",
// on stdin EOF, and on SIGTERM (which the kernel sends when the parent
// dies), and removes its data directory on every one of those paths.
const (
	roleEnv = "LIVEDEV_BENCH_ROLE"
	specEnv = "LIVEDEV_BENCH_SPEC"

	roleServer   = "server"
	roleFollower = "follower"
)

// stableTimeout is the Section 5.6 publication timeout the server child
// runs with: long enough that no timer-driven publication fires inside a
// stale_recovery cycle, so every recovery there is a forced publication.
const stableTimeout = 500 * time.Millisecond

// childSpec is everything a child is told: the generated method names
// (the only part of the seeded inputs the server sees), its processor
// budget, where to put its data directory, and for a follower the leader.
type childSpec struct {
	Methods  []string `json:"methods,omitempty"`
	Procs    int      `json:"procs"`
	CPUs     []int    `json:"cpus,omitempty"`
	WorkRoot string   `json:"work_root"`
	Leader   string   `json:"leader,omitempty"`
}

// bindingHello is where one binding's class is served.
type bindingHello struct {
	// Doc is the interface-document URL (Dial target); DocPath its path
	// on the Interface Server.
	Doc     string `json:"doc"`
	DocPath string `json:"doc_path"`
	// Endpoint is the HTTP call endpoint (SOAP, JSON, H2B).
	Endpoint string `json:"endpoint,omitempty"`
	// IOR is the stringified object reference (CORBA).
	IOR string `json:"ior,omitempty"`
	// Mux is the h2x fast-path listener (H2B).
	Mux string `json:"mux,omitempty"`
}

// hello is a child's first stdout line.
type hello struct {
	PID   int    `json:"pid"`
	Iface string `json:"iface"`
	// Server role only.
	Bindings    map[string]bindingHello `json:"bindings,omitempty"`
	StaticSOAP  string                  `json:"static_soap,omitempty"`
	StaticCORBA string                  `json:"static_corba,omitempty"`
	Ref         refAddrs                `json:"ref,omitempty"`
}

// ack answers one command.
type ack struct {
	OK  bool   `json:"ok"`
	Err string `json:"err,omitempty"`
	// edit: the committed document's store epoch, and how long
	// RenameMethod+PublishNow+WaitIdle took inside the child.
	Epoch uint64 `json:"epoch,omitempty"`
	NS    int64  `json:"ns,omitempty"`
	// rename-no-publish and stats: per-binding publisher counters.
	Publishers map[string]core.PublisherStats `json:"publishers,omitempty"`
	// stats: the child's own user+system CPU so far, at getrusage's
	// resolution (finer than the clock ticks of /proc/<pid>/stat).
	CPUUS int64 `json:"cpu_us,omitempty"`
}

// childMain runs the child role named by the environment and exits; it
// returns immediately in the parent.
func childMain() {
	role := os.Getenv(roleEnv)
	if role == "" {
		return
	}
	var spec childSpec
	if err := json.Unmarshal([]byte(os.Getenv(specEnv)), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench child: bad spec:", err)
		os.Exit(2)
	}
	// Catch the parent-death signal before anything is created: a child
	// killed mid-start-up must still reach its clean-up. A parent that died
	// before reading our stdout must not end us on the spot either: with
	// SIGPIPE ignored the announcement fails quietly and stdin's EOF
	// follows.
	signal.Notify(termSignal, syscall.SIGTERM, syscall.SIGINT)
	signal.Ignore(syscall.SIGPIPE)
	runtime.GOMAXPROCS(spec.Procs)
	err := pinProcess(spec.CPUs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		os.Exit(2)
	}
	switch role {
	case roleServer:
		err = runServerChild(spec)
	case roleFollower:
		err = runFollowerChild(spec)
	default:
		err = fmt.Errorf("unknown role %q", role)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench %s child: %v\n", role, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// dataDir creates the child's private directory under the work root and
// returns it with the function that removes it — and the root too, once
// it is empty, so the last process out leaves nothing behind even when
// the parent was killed before it could clean up.
func dataDir(spec childSpec, role string) (string, func(), error) {
	dir, err := os.MkdirTemp(spec.WorkRoot, role+"-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() {
		_ = os.RemoveAll(dir)
		_ = os.Remove(spec.WorkRoot) // fails, harmlessly, while siblings remain
	}, nil
}

// termSignal receives SIGTERM and SIGINT from the moment a child starts.
var termSignal = make(chan os.Signal, 1)

// commands delivers stdin lines until EOF or a termination signal closes
// the channel.
func commands() <-chan string {
	out := make(chan string)
	lines := make(chan string)
	go func() {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	go func() {
		defer close(out)
		for {
			select {
			case <-termSignal:
				return
			case l, ok := <-lines:
				if !ok {
					return
				}
				out <- l
			}
		}
	}()
	return out
}

func say(v any) {
	b, _ := json.Marshal(v)
	fmt.Println(string(b))
}

func runServerChild(spec childSpec) error {
	dir, cleanup, err := dataDir(spec, roleServer)
	if err != nil {
		return err
	}
	defer cleanup()

	core.RegisterBinding(jsonb.New())
	core.RegisterBinding(h2b.New())
	mgr, err := core.NewManager(core.Config{DataDir: dir, Sync: core.SyncNone, Timeout: stableTimeout})
	if err != nil {
		return err
	}
	// Stop, not Close: nothing is in flight when the parent says quit, and
	// the graceful drain's waits would be paid on every set-up.
	defer mgr.Stop()

	h := hello{PID: os.Getpid(), Iface: mgr.InterfaceBaseURL(),
		Bindings: make(map[string]bindingHello)}
	servers := make(map[string]core.Server)
	for _, b := range bindings {
		class, err := buildClass(className(b), spec.Methods)
		if err != nil {
			return err
		}
		srv, err := mgr.Register(class, core.Technology(b.tech))
		if err != nil {
			return err
		}
		if _, err := srv.CreateInstance(); err != nil {
			return err
		}
		servers[b.tech] = srv
		bh := bindingHello{Doc: srv.InterfaceURL(), DocPath: strings.TrimPrefix(srv.InterfaceURL(), mgr.InterfaceBaseURL())}
		switch s := srv.(type) {
		case *core.SOAPServer:
			bh.Endpoint = s.Endpoint()
		case *core.CORBAServer:
			bh.IOR = s.IOR().String()
		case *jsonb.Server:
			bh.Endpoint = s.Endpoint()
		case *h2b.Server:
			bh.Endpoint, bh.Mux = s.Endpoint(), s.MuxAddr()
		}
		h.Bindings[b.tech] = bh
	}

	// The Table 1 controls: the same interface behind precompiled tables.
	ops := staticOps(spec.Methods)
	ssoap, err := static.NewSOAPServer("urn:BenchStatic", ops)
	if err != nil {
		return err
	}
	if h.StaticSOAP, err = ssoap.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer ssoap.Close()
	scorba, err := static.NewCORBAServer("IDL:BenchStaticModule/BenchStatic:1.0", []byte("BenchStatic"), ops)
	if err != nil {
		return err
	}
	ref, err := scorba.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer scorba.Close()
	h.StaticCORBA = ref.String()

	refs, err := startRefServers()
	if err != nil {
		return err
	}
	defer refs.close()
	h.Ref = refs.addrs
	say(h)

	pubStats := func() map[string]core.PublisherStats {
		out := make(map[string]core.PublisherStats, len(servers))
		for tech, srv := range servers {
			out[tech] = srv.Publisher().Stats()
		}
		return out
	}
	for line := range commands() {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		switch f[0] {
		case "quit":
			say(ack{OK: true})
			return nil
		case "stats":
			say(ack{OK: true, Publishers: pubStats(), CPUUS: selfCPU().Microseconds()})
		case "edit", "rename-no-publish":
			if len(f) != 4 {
				say(ack{Err: "usage: " + f[0] + " TECH OLD NEW"})
				continue
			}
			srv, ok := servers[f[1]]
			if !ok {
				say(ack{Err: "no such binding " + f[1]})
				continue
			}
			id, ok := srv.Class().MethodIDByName(f[2])
			if !ok {
				say(ack{Err: "no such method " + f[2]})
				continue
			}
			start := time.Now()
			if err := srv.Class().RenameMethod(id, f[3]); err != nil {
				say(ack{Err: err.Error()})
				continue
			}
			if f[0] == "rename-no-publish" {
				// The stability timer is now armed and nothing is
				// published: the next stale call must force publication.
				say(ack{OK: true, Publishers: pubStats()})
				continue
			}
			srv.Publisher().PublishNow()
			srv.Publisher().WaitIdle()
			ns := time.Since(start).Nanoseconds()
			doc, err := mgr.Store().Get(h.Bindings[f[1]].DocPath)
			if err != nil {
				say(ack{Err: err.Error()})
				continue
			}
			say(ack{OK: true, Epoch: doc.Epoch, NS: ns})
		default:
			say(ack{Err: "unknown command " + f[0]})
		}
	}
	return nil
}

// runFollowerChild is a read-only replica of the server child. It is built
// on repl.OpenFollower directly: core.NewManager's follower mode
// (Config.FollowURL) dereferences the follower's Interface Server before
// Serve has created it (internal/core/manager.go, "f.Iface().MaxWatcherLag")
// and panics — recorded in README.md for a later PR; nothing outside this
// directory is edited here.
func runFollowerChild(spec childSpec) error {
	dir, cleanup, err := dataDir(spec, roleFollower)
	if err != nil {
		return err
	}
	defer cleanup()
	f, err := repl.OpenFollower(repl.FollowerConfig{Leader: spec.Leader,
		Store: ifsvr.StoreConfig{Dir: dir, Sync: ifsvr.SyncNone}})
	if err != nil {
		return err
	}
	defer f.Close()
	base, err := f.Serve("127.0.0.1:0")
	if err != nil {
		return err
	}
	say(hello{PID: os.Getpid(), Iface: base})
	for line := range commands() {
		if strings.TrimSpace(line) == "quit" {
			say(ack{OK: true})
			return nil
		}
		say(ack{Err: "unknown command " + line})
	}
	return nil
}
