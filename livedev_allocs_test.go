//go:build !race

package livedev_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"livedev"
)

// clientCallAllocs is, per binding, the most allocations one steady-state
// call may make: a Dial'd client's CallContext of a 64-byte string echo,
// client and in-process server counted together. H2B's call rides the
// h2x fast path its document names. Budgets may be lowered, never raised.
var clientCallAllocs = map[livedev.Technology]float64{
	livedev.TechSOAP:  11,
	livedev.TechCORBA: 8,
	"JSON":            8,
	"H2B":             15,
}

// TestWriteAllocsClientCall pins the whole call path of each binding, so a
// change to the client half (the codec, the transport exchange, the call
// contract) cannot add per-call allocations unseen.
func TestWriteAllocsClientCall(t *testing.T) {
	livedev.RegisterBinding(livedev.JSONBinding())
	livedev.RegisterBinding(livedev.H2BBinding())
	ctx := context.Background()
	arg := livedev.Str(strings.Repeat("x", 64))
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
			allocs := testing.AllocsPerRun(500, call)
			t.Logf("%s: %.1f allocations per call", tech, allocs)
			if budget := clientCallAllocs[tech]; allocs > budget {
				t.Errorf("a %s call allocates %.1f times, want at most %.0f", tech, allocs, budget)
			}
		})
	}
}
