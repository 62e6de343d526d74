//go:build unix && !aix

// The server answers "has the peer gone?" with a peek at the socket when
// asked on these platforms. Elsewhere it learns it from a background read,
// as net/http does, which the scheduler may deliver after the call has
// been dispatched: there the check is best effort, and this test would
// time it rather than pin it.

package core_test

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"livedev/internal/core"
	"livedev/internal/h2b"
	"livedev/internal/jsonb"
)

// callsInCall counts the goroutines inside ClassServer.Call.
func callsInCall() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "core.(*ClassServer).Call(")
}

// waitUntil polls cond, yielding between polls, for up to ten seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// TestAbandonedHTTPCallIsNotDispatched holds a call behind the write gate
// on each HTTP binding: a slow body holds the read gate while a stale call
// waits for the write gate, and a third call waits behind it. Its client
// then stops sending (the peer's close, as the server sees it), and the
// slow body is released. The held call must not run its body, must not be
// counted, and must get no reply.
func TestAbandonedHTTPCallIsNotDispatched(t *testing.T) {
	core.RegisterBinding(jsonb.New())
	core.RegisterBinding(h2b.New())
	for _, b := range endpointBindings {
		t.Run(string(b.tech), func(t *testing.T) {
			m, err := core.NewManager(core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			var ran atomic.Int32
			entered, hold := make(chan struct{}, 1), make(chan struct{})
			class := "Held" + string(b.tech)
			srv, err := m.Register(endpointClass(t, class, &ran, entered, hold), b.tech)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := srv.CreateInstance(); err != nil {
				t.Fatal(err)
			}
			addr := strings.TrimPrefix(m.HTTPBaseURL(), "http://")
			send := func(method string) net.Conn {
				nc, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
				h, body := b.request(class, method, 7)
				if _, err := io.WriteString(nc, rawPost(b.path+class, h, body)); err != nil {
					t.Fatal(err)
				}
				return nc
			}
			before := srv.CallStats()

			slow := send("slow")
			defer slow.Close()
			<-entered
			stale := send("renamedAway")
			defer stale.Close()
			gate := srv.(interface{ WriterWaiting() bool })
			waitUntil(t, "the stale call waits for the write gate", gate.WriterWaiting)
			held := send("count")
			defer held.Close()
			waitUntil(t, "the third call waits behind it", func() bool { return callsInCall() == 3 })

			if err := held.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatal(err)
			}
			close(hold)
			for _, c := range []struct {
				nc     net.Conn
				status int
			}{{slow, http.StatusOK}, {stale, map[core.Technology]int{core.TechSOAP: 500, jsonb.Name: 404, h2b.Name: 404}[b.tech]}} {
				resp, err := http.ReadResponse(bufio.NewReader(c.nc), nil)
				if err != nil || resp.StatusCode != c.status {
					t.Fatalf("reply %v, %v; want status %d", resp, err, c.status)
				}
			}
			if reply, err := io.ReadAll(held); len(reply) != 0 || err != nil {
				t.Errorf("the abandoned call got a reply: %q, %v", reply, err)
			}
			if n := ran.Load(); n != 0 {
				t.Errorf("the abandoned call's body ran %d times", n)
			}
			after := srv.CallStats()
			if calls, stale := after.Calls-before.Calls, after.StaleCalls-before.StaleCalls; calls != 1 || stale != 1 {
				t.Errorf("counted %d calls and %d stale calls, want the slow call and the stale one only", calls, stale)
			}
		})
	}
}
