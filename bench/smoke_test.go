package main

import (
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"livedev"
)

// asParentEnv makes the test binary behave as the benchmark command, so
// the orphan test has a real parent process to kill.
const asParentEnv = "LIVEDEV_BENCH_TEST_AS_PARENT"

func TestMain(m *testing.M) {
	childMain() // the test binary re-execs itself as server and follower
	if os.Getenv(asParentEnv) != "" {
		main()
		return
	}
	livedev.RegisterBinding(livedev.JSONBinding())
	livedev.RegisterBinding(livedev.H2BBinding())
	if err := pinAll(); err != nil {
		panic(err)
	}
	logOut = io.Discard
	os.Exit(m.Run())
}

func quickOptions(trace bool) options {
	return options{seed: 11, window: 500 * time.Millisecond, trace: trace, quick: true}
}

func inTempDir(t *testing.T) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(old) })
}

func checkResult(t *testing.T, r *result, defs []metricDef) {
	t.Helper()
	validate(r, defs)
	if !r.Correct {
		t.Errorf("%s: correctness checks failed: %v", r.workload, r.problems)
	}
	if r.Attempted < 1 || r.Failed != 0 {
		t.Errorf("%s: attempted %d, failed %d", r.workload, r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", r.workload, len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
			t.Errorf("%s: metric %s = %+v", r.workload, d.Name, m)
		}
		if d.EndToEnd && m.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, want positive", r.workload, d.Name, m.Value)
		}
	}
}

// TestSmokeEndToEnd runs every workload in its sub-second shape with
// tracing off and checks the correctness verdict and that each end-to-end
// metric is emitted once with a finite value. It asserts nothing about how
// fast anything was.
func TestSmokeEndToEnd(t *testing.T) {
	inTempDir(t)
	for _, w := range workloads {
		r, err := runWorkload(w, quickOptions(false))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkResult(t, r, endToEndDefs)
	}
	leftovers, _ := filepath.Glob(".benchwork-*")
	if len(leftovers) > 0 {
		t.Errorf("work directories left behind: %v", leftovers)
	}
}

// TestSmokeTraced runs the traced pass once, in a shape that has both the
// bulk payload and the concurrent callers (the small serial shape is what
// TestSmokeEndToEnd drives), and checks that every per-layer metric is
// emitted and the span file written.
func TestSmokeTraced(t *testing.T) {
	inTempDir(t)
	w := workload{name: "smoke_traced", bulk: true, concurrent: true}
	opt := quickOptions(true)
	opt.spans = filepath.Join(t.TempDir(), "spans.json")
	r, err := runWorkload(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, r, perLayerDefs)
	if st, err := os.Stat(opt.spans); err != nil || st.Size() == 0 {
		t.Errorf("span file not written: %v", err)
	}
}

// childrenOf lists the live (non-zombie) processes whose parent is ppid.
func childrenOf(ppid int) []int {
	var out []int
	entries, _ := os.ReadDir("/proc")
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if p, state := parentOf(pid); p == ppid && state != "Z" {
			out = append(out, pid)
		}
	}
	return out
}

// parentOf reads a process's parent pid and state ("" when it is gone).
func parentOf(pid int) (ppid int, state string) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, ""
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 2 {
		return 0, ""
	}
	ppid, _ = strconv.Atoi(f[1])
	return ppid, f[0]
}

// TestKilledParentLeavesNothing kills the benchmark the hard way — once
// while its children are still starting, once mid-window — and asserts
// that the children exit and remove their data directories.
func TestKilledParentLeavesNothing(t *testing.T) {
	for _, c := range []struct {
		name  string
		after time.Duration
	}{{"during start-up", 0}, {"mid-window", 1500 * time.Millisecond}} {
		t.Run(c.name, func(t *testing.T) { killParent(t, c.after) })
	}
}

func killParent(t *testing.T, after time.Duration) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-workload", "edit_fanout", "-seconds", "30")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), asParentEnv+"=1")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait until both children are up and have made their data directories
	// (again after the pause: set-up repeats, so the children change).
	var kids []int
	awaitChildren := func() {
		deadline := time.Now().Add(30 * time.Second)
		for {
			kids = childrenOf(cmd.Process.Pid)
			dirs, _ := filepath.Glob(filepath.Join(dir, ".benchwork-*", "*"))
			if len(kids) == 2 && len(dirs) == 2 {
				return
			}
			if time.Now().After(deadline) {
				_ = cmd.Process.Kill()
				t.Fatalf("children never came up: pids %v, dirs %v", kids, dirs)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	awaitChildren()
	if after > 0 {
		time.Sleep(after)
		awaitChildren()
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()

	deadline := time.Now().Add(15 * time.Second)
	for {
		alive := 0
		for _, pid := range kids {
			if _, state := parentOf(pid); state != "" && state != "Z" {
				alive++
			}
		}
		left, _ := filepath.Glob(filepath.Join(dir, ".benchwork-*"))
		if alive == 0 && len(left) == 0 {
			return
		}
		if time.Now().After(deadline) {
			for _, pid := range kids {
				_ = syscall.Kill(pid, syscall.SIGKILL)
			}
			inside, _ := filepath.Glob(filepath.Join(dir, ".benchwork-*", "*"))
			t.Fatalf("after the parent was killed: %d children alive, left behind %v holding %v", alive, left, inside)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
