package livedev_test

import (
	"bytes"
	"context"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"livedev"
)

// Syscall budgets of one steady-state call, client and in-process server
// together: a request written and read, a reply written and read, and on
// each side one read that finds the socket empty before the poller parks
// it. syscallSlack allows, per call, for reads other goroutines of the
// process make meanwhile.
const (
	callReads    = 4
	callWrites   = 2
	syscallSlack = 0.05
)

// procIO reads the process's read and write syscall counts from
// /proc/self/io.
func procIO() (reads, writes uint64, ok bool) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0, false
	}
	seen := 0
	for _, line := range bytes.Split(data, []byte("\n")) {
		name, value, found := strings.Cut(string(line), ": ")
		if !found {
			continue
		}
		n, err := strconv.ParseUint(value, 10, 64)
		if err != nil {
			continue
		}
		switch name {
		case "syscr":
			reads, seen = n, seen+1
		case "syscw":
			writes, seen = n, seen+1
		}
	}
	return reads, writes, seen == 2
}

// TestSyscallsPerCall counts the read and write syscalls of sequential
// 64-byte echoes over one Dial'd client per binding, client and
// in-process server together. A transport that reads a message in pieces,
// or writes one in pieces, shows here as a count, not as a timing.
func TestSyscallsPerCall(t *testing.T) {
	if _, _, ok := procIO(); !ok {
		t.Skip("/proc/self/io is not readable")
	}
	livedev.RegisterBinding(livedev.JSONBinding())
	livedev.RegisterBinding(livedev.H2BBinding())
	ctx := context.Background()
	arg := livedev.Str(strings.Repeat("x", 64))
	const calls = 10000
	for _, tech := range staleTechs {
		t.Run(string(tech), func(t *testing.T) {
			srv, _ := startEchoServer(t, tech, livedev.Config{Timeout: time.Hour})
			client, err := livedev.Dial(ctx, srv.InterfaceURL())
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = client.Close() }()
			call := func() {
				v, err := client.CallContext(ctx, "echo", arg)
				if err != nil || v.Str() != arg.Str() {
					t.Fatalf("echo = %v, %v", v, err)
				}
			}
			for range 50 {
				call()
			}
			r0, w0, _ := procIO()
			for range calls {
				call()
			}
			r1, w1, _ := procIO()
			reads := float64(r1-r0) / calls
			writes := float64(w1-w0) / calls
			t.Logf("%s: %.2f reads and %.2f writes per call", tech, reads, writes)
			if reads > callReads+syscallSlack {
				t.Errorf("a %s call makes %.2f read syscalls, want at most %d", tech, reads, callReads)
			}
			if writes > callWrites+syscallSlack {
				t.Errorf("a %s call makes %.2f write syscalls, want at most %d", tech, writes, callWrites)
			}
		})
	}
}
