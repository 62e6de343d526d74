package core_test

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/h2b"
	"livedev/internal/ior"
	"livedev/internal/jsonb"
	"livedev/internal/orb"
	"livedev/internal/soap"
)

// callRequests is the committed transcript of TestCallRequestsMatchTranscript:
// for each row, its name, then the request the caller sent, one quoted
// line at a time.
const callRequests = "testdata/call_requests.txt"

// giopRequests is the committed transcript of
// TestGIOPRequestsMatchTranscript: for each row, its name, then the
// request message in hex, 32 octets a line.
const giopRequests = "testdata/giop_requests.txt"

// recorder is a raw-TCP relay on loopback in front of target: it copies
// every connection to target and the replies back, and keeps the bytes the
// clients sent.
type recorder struct {
	ln     net.Listener
	target string

	mu    sync.Mutex
	sent  bytes.Buffer
	conns []net.Conn
	wg    sync.WaitGroup
}

func newRecorder(t *testing.T, target string) *recorder {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &recorder{ln: ln, target: target}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			r.wg.Add(1)
			go r.relay(c)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		r.mu.Lock()
		for _, c := range r.conns {
			c.Close()
		}
		r.mu.Unlock()
		r.wg.Wait()
	})
	return r
}

// relay copies c to the target and back. A request's bytes are kept
// before they go on, so they are all recorded by the time its reply
// arrives.
func (r *recorder) relay(c net.Conn) {
	defer r.wg.Done()
	s, err := net.Dial("tcp", r.target)
	if err != nil {
		c.Close()
		return
	}
	r.mu.Lock()
	r.conns = append(r.conns, c, s)
	r.mu.Unlock()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		_, _ = io.Copy(c, s)
		c.Close()
	}()
	_, _ = io.Copy(s, io.TeeReader(c, r))
	s.Close()
}

// Write implements io.Writer for the relay's tee.
func (r *recorder) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sent.Write(p)
}

// take returns what clients sent since the last take.
func (r *recorder) take() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.sent.String()
	r.sent.Reset()
	return s
}

// TestCallRequestsMatchTranscript records, through a raw-TCP relay, the
// request each HTTP binding's caller sends — soap.Client, jsonb.Caller
// and h2b.Caller without a mux, each on the default HTTP/1.1 client — for
// a call and for a stale call, then SOAP's and JSON's for the echo of a
// sequence of structs, and compares them with the committed
// transcript in testdata, which -update rewrites. The relay forwards to a
// live manager, so each call is also checked for its answer.
func TestCallRequestsMatchTranscript(t *testing.T) {
	core.RegisterBinding(jsonb.New())
	core.RegisterBinding(h2b.New())
	m, err := core.NewManager(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	rec := newRecorder(t, strings.TrimPrefix(m.HTTPBaseURL(), "http://"))
	base := "http://" + rec.ln.Addr().String()

	var ran atomic.Int32
	for _, b := range endpointBindings {
		class := "Rec" + string(b.tech)
		srv, err := m.Register(endpointClass(t, class, &ran, nil, nil), b.tech)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.CreateInstance(); err != nil {
			t.Fatal(err)
		}
	}
	type caller func(ctx context.Context, sig dyn.MethodSig, args []dyn.Value) (dyn.Value, error)
	callers := []struct {
		name string
		call caller
	}{
		{"SOAP", func(ctx context.Context, sig dyn.MethodSig, args []dyn.Value) (dyn.Value, error) {
			c := &soap.Client{Endpoint: base + "/soap/RecSOAP", ServiceNS: "urn:RecSOAP"}
			return c.CallContext(ctx, sig.Name, []soap.NamedValue{{Name: sig.Params[0].Name, Value: args[0]}}, sig.Result)
		}},
		{"JSON", (&jsonb.Caller{Endpoint: base + "/json/RecJSON"}).Call},
		{"H2B", (&h2b.Caller{Endpoint: base + "/h2b/RecH2B"}).Call},
	}

	var transcript strings.Builder
	for _, c := range callers {
		for _, method := range []string{"twice", "renamedAway"} {
			sig := dyn.MethodSig{Name: method, Params: []dyn.Param{{Name: "a", Type: dyn.Int32T}}, Result: dyn.Int32T}
			v, err := c.call(context.Background(), sig, []dyn.Value{dyn.Int32Value(21)})
			name := c.name + " call"
			if method == "twice" {
				if err != nil || v.Int32() != 42 {
					t.Fatalf("%s: twice(21) = %v, %v", c.name, v, err)
				}
			} else {
				name = c.name + " stale call"
				if err == nil {
					t.Fatalf("%s: a call of an unknown method succeeded", c.name)
				}
			}
			got := loopbackAddr.ReplaceAllString(rec.take(), "127.0.0.1:*")
			transcript.WriteString("=== " + name + "\n")
			for line := range strings.SplitAfterSeq(got, "\n") {
				transcript.WriteString(strconv.Quote(line) + "\n")
			}
		}
	}

	// Then the echo of a sequence of structs, whose request is most of the
	// text encoders' work.
	registerEcho(t, m, "RecEcho")
	echoCallers := []struct {
		name string
		call caller
	}{
		{"SOAP", func(ctx context.Context, sig dyn.MethodSig, args []dyn.Value) (dyn.Value, error) {
			c := &soap.Client{Endpoint: base + "/soap/RecEchoSOAP", ServiceNS: "urn:RecEchoSOAP"}
			return c.CallContext(ctx, sig.Name, []soap.NamedValue{{Name: sig.Params[0].Name, Value: args[0]}}, sig.Result)
		}},
		{"JSON", (&jsonb.Caller{Endpoint: base + "/json/RecEchoJSON"}).Call},
	}
	for _, c := range echoCallers {
		v, err := c.call(context.Background(), echoSig, []dyn.Value{echoValue()})
		if err != nil || !v.Equal(echoValue()) {
			t.Fatalf("%s: echo = %v, %v", c.name, v, err)
		}
		transcript.WriteString("=== " + c.name + " echo sequence\n")
		for line := range strings.SplitAfterSeq(loopbackAddr.ReplaceAllString(rec.take(), "127.0.0.1:*"), "\n") {
			transcript.WriteString(strconv.Quote(line) + "\n")
		}
	}
	checkTranscript(t, callRequests, transcript.String())
}

// TestGIOPRequestsMatchTranscript records, through the raw-TCP relay, the
// GIOP Request the CORBA stub's client ORB (orb.ClientORB, bound to an IOR
// that names the relay) sends for a call and for a stale call, and
// compares each with the committed transcript in testdata, which -update
// rewrites. The relay forwards to a live CORBA server, so each call is
// also checked for its answer.
func TestGIOPRequestsMatchTranscript(t *testing.T) {
	m, err := core.NewManager(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var ran atomic.Int32
	srv, err := m.Register(endpointClass(t, "RecCORBA", &ran, nil, nil), core.TechCORBA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	ref := srv.(*core.CORBAServer).IOR()
	p, err := ref.FirstIIOP()
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder(t, p.Addr())
	relay := rec.ln.Addr().(*net.TCPAddr)
	stub, err := orb.DialIOR(ior.New(ref.TypeID, "127.0.0.1", uint16(relay.Port), p.ObjectKey))
	if err != nil {
		t.Fatal(err)
	}
	defer stub.Close()

	var transcript strings.Builder
	for _, method := range []string{"twice", "renamedAway"} {
		sig := dyn.MethodSig{Name: method, Params: []dyn.Param{{Name: "a", Type: dyn.Int32T}}, Result: dyn.Int32T}
		v, err := stub.InvokeContext(context.Background(), sig, []dyn.Value{dyn.Int32Value(21)})
		name := "CORBA call"
		if method == "twice" {
			if err != nil || v.Int32() != 42 {
				t.Fatalf("twice(21) = %v, %v", v, err)
			}
		} else {
			name = "CORBA stale call"
			if !errors.Is(err, orb.ErrNonExistentMethod) {
				t.Fatalf("a call of an unknown method = %v, %v; want a stale error", v, err)
			}
		}
		transcript.WriteString("=== " + name + "\n" + wrap([]byte(hex.EncodeToString([]byte(rec.take())))))
	}
	checkTranscript(t, giopRequests, transcript.String())
}
