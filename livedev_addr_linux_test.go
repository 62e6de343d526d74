package livedev_test

import (
	"context"
	"errors"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"livedev"
	"livedev/internal/cde"
	"livedev/internal/core"
	"livedev/internal/h2b"
	"livedev/internal/ifsvr"
	"livedev/internal/ior"
)

// The tests in this file reach the servers at 127.0.0.2, which Linux's
// loopback answers and which no listener or document names unless the
// client resolved an unspecified host to it.

// addrCalcs is one calculator class per binding: add(a, b int32) int32.
var addrCalcs = []struct {
	class, doc string
	tech       livedev.Technology
}{
	{"AddrSOAP", "/wsdl/AddrSOAP.wsdl", livedev.TechSOAP},
	{"AddrCORBA", "/idl/AddrCORBA.idl", livedev.TechCORBA},
	{"AddrJSON", "/jsonif/AddrJSON.json", "JSON"},
	{"AddrH2B", "/h2bif/AddrH2B.h2b", "H2B"},
}

// serveAddrCalcs registers every addrCalcs class on a manager with cfg and
// returns the manager and the servers, in addrCalcs' order.
func serveAddrCalcs(t *testing.T, cfg livedev.Config) (*livedev.Manager, []livedev.Server) {
	t.Helper()
	livedev.RegisterBinding(livedev.JSONBinding())
	livedev.RegisterBinding(livedev.H2BBinding())
	m, err := livedev.NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	var srvs []livedev.Server
	for _, c := range addrCalcs {
		class := livedev.NewClass(c.class)
		if _, err := class.AddMethod(livedev.MethodSpec{
			Name:        "add",
			Params:      []livedev.Param{{Name: "a", Type: livedev.Int32Type}, {Name: "b", Type: livedev.Int32Type}},
			Result:      livedev.Int32Type,
			Distributed: true,
			Body: func(_ *livedev.Instance, args []livedev.Value) (livedev.Value, error) {
				return livedev.Int32(args[0].Int32() + args[1].Int32()), nil
			},
		}); err != nil {
			t.Fatal(err)
		}
		srv, err := m.Register(class, c.tech)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.CreateInstance(); err != nil {
			t.Fatal(err)
		}
		srvs = append(srvs, srv)
	}
	return m, srvs
}

// callAdd dials the document at url and checks add(20, 22) = 42. The
// client stays open, and so its connection, until t ends.
func callAdd(t *testing.T, url string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	client, err := livedev.Dial(ctx, url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	if v, err := client.CallContext(ctx, "add", livedev.Int32(20), livedev.Int32(22)); err != nil || v.Int32() != 42 {
		t.Fatalf("add(20, 22) through %s = %v, %v", url, v, err)
	}
}

// TestCompileResolvesUnspecifiedHost serves every binding's documents
// rewritten to name the unspecified host "::" in place of 127.0.0.2, the
// only address the servers listen on, from 127.0.0.2. A call then
// succeeds only if the client's compiled Caller or stub is aimed at the
// host the document was read from. H2B is compiled twice: with its mux
// address, and without, so its calls go to the HTTP endpoint.
func TestCompileResolvesUnspecifiedHost(t *testing.T) {
	m, _ := serveAddrCalcs(t, livedev.Config{InterfaceAddr: "127.0.0.2:0", HTTPAddr: "127.0.0.2:0", CORBAAddr: "127.0.0.2:0"})
	ln, err := net.Listen("tcp", "127.0.0.2:0")
	if err != nil {
		t.Fatal(err)
	}
	docs := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path, httpOnly := strings.CutPrefix(r.URL.Path, "/http")
		resp, err := http.Get(m.InterfaceBaseURL() + path)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		content := strings.ReplaceAll(string(raw), "127.0.0.2:", "[::]:")
		switch {
		case strings.HasPrefix(content, "IOR:"):
			ref, err := ior.ParseString(content)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
			ref.Profiles[0].Host = "::"
			content = ref.String()
		case httpOnly:
			desc, endpoint, _, err := h2b.ParseDoc(content)
			if err == nil {
				content, err = h2b.GenerateDoc(desc, endpoint, "")
			}
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
		}
		for k, v := range resp.Header {
			if k != "Content-Length" {
				w.Header()[k] = v
			}
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = io.WriteString(w, content)
	}))
	docs.Listener.Close()
	docs.Listener = ln
	docs.Start()
	defer docs.Close()

	for _, c := range addrCalcs {
		t.Run(string(c.tech), func(t *testing.T) { callAdd(t, docs.URL+c.doc) })
	}
	t.Run("H2B-http", func(t *testing.T) { callAdd(t, docs.URL+"/http/h2bif/AddrH2B.h2b") })
}

// TestWildcardServerCallsArriveOnDialedHost binds every listener to every
// interface, reads the documents from 127.0.0.2, and calls every front:
// SOAP, CORBA, JSON, H2B-http and H2B-mux. Each call must arrive on
// 127.0.0.2, which the kernel's socket table shows as the local address of
// the server's side of the call's connection. A client that dialed the
// published wildcard address as it is would arrive on loopback (::1 or
// 127.0.0.1) instead: its calls succeed, but only on this machine.
func TestWildcardServerCallsArriveOnDialedHost(t *testing.T) {
	if _, err := os.Stat("/proc/net/tcp"); err != nil {
		t.Skip("no /proc/net/tcp to read the server's local addresses from:", err)
	}
	m, srvs := serveAddrCalcs(t, livedev.Config{InterfaceAddr: ":0", HTTPAddr: ":0", CORBAAddr: ":0"})
	base := "http://127.0.0.2:" + port(t, m.InterfaceBaseURL())
	httpPort := port(t, m.HTTPBaseURL())
	corbaRef := srvs[1].(*core.CORBAServer).IOR()
	mux := srvs[3].(*h2b.Server).MuxAddr()
	if !strings.HasPrefix(mux, "[::]:") && !strings.HasPrefix(mux, "0.0.0.0:") {
		t.Fatalf("the mux listener is on %s, not on every interface", mux)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	h2bHTTP := func(t *testing.T) {
		doc, err := ifsvr.FetchContext(ctx, nil, base+addrCalcs[3].doc)
		if err != nil {
			t.Fatal(err)
		}
		desc, endpoint, _, err := h2b.ParseDoc(doc.Content)
		if err != nil {
			t.Fatal(err)
		}
		sig, _ := desc.Lookup("add")
		caller := &h2b.Caller{Endpoint: cde.ResolveAddr(endpoint, base+addrCalcs[3].doc)}
		if v, err := caller.Call(ctx, sig, []livedev.Value{livedev.Int32(20), livedev.Int32(22)}); err != nil || v.Int32() != 42 {
			t.Fatalf("add(20, 22) = %v, %v", v, err)
		}
	}
	for _, front := range []struct {
		name, port string
		call       func(t *testing.T)
	}{
		{"SOAP", httpPort, func(t *testing.T) { callAdd(t, base+addrCalcs[0].doc) }},
		{"CORBA", strconv.Itoa(int(corbaRef.Profiles[0].Port)), func(t *testing.T) { callAdd(t, base+addrCalcs[1].doc) }},
		{"JSON", httpPort, func(t *testing.T) { callAdd(t, base+addrCalcs[2].doc) }},
		{"H2B-http", httpPort, h2bHTTP},
		{"H2B-mux", port(t, "http://"+mux), func(t *testing.T) { callAdd(t, base+addrCalcs[3].doc) }},
	} {
		t.Run(front.name, func(t *testing.T) {
			front.call(t)
			// The callers keep their connections, so each front's call is
			// still in the table: every server-side connection on the
			// front's port must be on 127.0.0.2.
			locals := serverLocalAddrs(t, front.port)
			if len(locals) == 0 {
				t.Fatalf("no connection to port %s is open after the call", front.port)
			}
			for _, a := range locals {
				if a != "127.0.0.2" {
					t.Fatalf("calls to port %s arrived on %v, not only on the host the client dialed (127.0.0.2)", front.port, locals)
				}
			}
		})
	}
}

// port returns the port of a URL.
func port(t *testing.T, url string) string {
	t.Helper()
	_, p, err := net.SplitHostPort(strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// serverLocalAddrs reads the kernel's TCP tables and returns the local
// address of every established connection whose local port is port — the
// server's side of each connection to it.
func serverLocalAddrs(t *testing.T, port string) []string {
	t.Helper()
	p, err := strconv.Atoi(port)
	if err != nil {
		t.Fatal(err)
	}
	suffix := ":" + strings.ToUpper(strconv.FormatInt(int64(p), 16))
	for len(suffix) < 5 {
		suffix = ":0" + suffix[1:]
	}
	var locals []string
	for _, table := range []string{"/proc/net/tcp", "/proc/net/tcp6"} {
		raw, err := os.ReadFile(table)
		if errors.Is(err, fs.ErrNotExist) {
			continue // no IPv6
		} else if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n")[1:] {
			f := strings.Fields(line)
			if len(f) < 4 || f[3] != "01" || !strings.HasSuffix(f[1], suffix) { // 01: ESTABLISHED
				continue
			}
			locals = append(locals, procIP(t, strings.TrimSuffix(f[1], suffix)).String())
		}
	}
	return locals
}

// procIP decodes an address as the kernel's TCP tables print it: 32-bit
// words in hex, each in host byte order (little-endian on the machines
// this test runs on). An IPv4-mapped IPv6 address decodes as IPv4.
func procIP(t *testing.T, hex string) net.IP {
	t.Helper()
	ip := make(net.IP, len(hex)/2)
	for w := 0; w*8 < len(hex); w++ {
		word, err := strconv.ParseUint(hex[w*8:w*8+8], 16, 32)
		if err != nil {
			t.Fatal(err)
		}
		for i := range 4 {
			ip[w*4+i] = byte(word >> (8 * i))
		}
	}
	if v4 := ip.To4(); v4 != nil {
		return v4
	}
	return ip
}
