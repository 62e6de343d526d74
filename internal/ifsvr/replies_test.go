package ifsvr

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/iface_replies.txt from the live replies")

// ifaceReplies is the committed transcript of TestServerRepliesMatchTranscript:
// for each row, its name, then the reply one quoted line at a time.
const ifaceReplies = "testdata/iface_replies.txt"

// What varies between runs, masked in the committed replies: Date, the
// store's random generation (a header, and a field of /.stats) and so the
// length of the /.stats body.
var (
	dateValue       = regexp.MustCompile(`(?m)^Date: [^\r]*\r$`)
	generationValue = regexp.MustCompile(`(?m)^(X-Store-Generation: )\d+`)
	statsGeneration = regexp.MustCompile(`("Generation": )\d+`)
	contentLength   = regexp.MustCompile(`(?m)^Content-Length: \d+\r$`)
)

// TestServerRepliesMatchTranscript sends raw requests over TCP to an
// Interface Server started with Start and compares every reply, byte for
// byte, with the committed transcript in testdata, which -update
// rewrites: document GETs over HTTP/1.1 and HTTP/1.0, HEAD (which holds
// no stream), 404, 405, a replica's 421 and its document GET, per-path
// streams from epoch 0 and 1, the all-paths stream, a stream over
// HTTP/1.0, and /.stats by GET and HEAD. Each
// stream is held on its own server with a one-hour heartbeat, which
// Shutdown then drains, so a stream row is its head, its catch-up and the
// "draining" farewell.
func TestServerRepliesMatchTranscript(t *testing.T) {
	st := NewStore(0, nil)
	t.Cleanup(st.Close)
	st.PublishVersioned("/wsdl/Calc.wsdl", "text/xml", `<definitions name="Calc"/>`, 1)
	st.PublishVersioned("/wsdl/Calc.wsdl", "text/xml", `<definitions name="Calc"><operation name="add"/></definitions>`, 2)
	st.PublishVersioned("/idl/Calc.idl", "text/plain", "module CalcModule { interface Calc {}; };", 1)

	start := func(leader string) (*Server, string) {
		s := NewView(st)
		s.HeartbeatInterval, s.LeaderURL = time.Hour, leader
		base, err := s.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		return s, strings.TrimPrefix(base, "http://")
	}
	_, leader := start("")
	_, replica := start("http://leader.invalid")

	get := func(target, proto string) string {
		return "GET " + target + " " + proto + "\r\nHost: livedev\r\n\r\n"
	}
	rows := []struct {
		name, addr, req string
		stream          bool
	}{
		{name: "GET", addr: leader, req: get("/wsdl/Calc.wsdl", "HTTP/1.1")},
		{name: "GET HTTP/1.0", addr: leader, req: get("/idl/Calc.idl", "HTTP/1.0")},
		{name: "HEAD", addr: leader, req: "HEAD /wsdl/Calc.wsdl HTTP/1.1\r\nHost: livedev\r\n\r\n"},
		{name: "HEAD stream", addr: leader, req: "HEAD /wsdl/Calc.wsdl?watch=stream&after=0 HTTP/1.1\r\nHost: livedev\r\n\r\n"},
		{name: "not found", addr: leader, req: get("/wsdl/Missing.wsdl", "HTTP/1.1")},
		{name: "POST", addr: leader, req: "POST /wsdl/Calc.wsdl HTTP/1.1\r\nHost: livedev\r\nContent-Length: 2\r\n\r\nhi"},
		{name: "replica POST", addr: replica, req: "POST /wsdl/Calc.wsdl HTTP/1.1\r\nHost: livedev\r\nContent-Length: 2\r\n\r\nhi"},
		{name: "replica GET", addr: replica, req: get("/wsdl/Calc.wsdl", "HTTP/1.1")},
		{name: "stream after=0", req: get("/wsdl/Calc.wsdl?watch=stream&after=0", "HTTP/1.1"), stream: true},
		{name: "stream after=1", req: get("/wsdl/Calc.wsdl?watch=stream&after=1", "HTTP/1.1"), stream: true},
		{name: "all-paths stream", req: get(AllPath+"?watch=stream&after=0", "HTTP/1.1"), stream: true},
		{name: "stream HTTP/1.0", req: get("/idl/Calc.idl?watch=stream&after=0", "HTTP/1.0"), stream: true},
		{name: "stats", addr: leader, req: get(StatsPath, "HTTP/1.1")},
		{name: "HEAD stats", addr: leader, req: "HEAD " + StatsPath + " HTTP/1.1\r\nHost: livedev\r\n\r\n"},
	}
	var transcript strings.Builder
	for _, r := range rows {
		var raw []byte
		if r.stream {
			s, addr := start("")
			raw = streamRaw(t, s, addr, r.req)
		} else {
			raw = exchangeRaw(t, r.addr, r.req)
		}
		got := generationValue.ReplaceAllString(string(dateValue.ReplaceAll(raw, []byte("Date: *\r"))), "${1}*")
		if strings.HasSuffix(r.name, "stats") {
			got = contentLength.ReplaceAllString(statsGeneration.ReplaceAllString(got, "${1}*"), "Content-Length: *\r")
		}
		transcript.WriteString("=== " + r.name + "\n")
		for line := range strings.SplitAfterSeq(got, "\n") {
			transcript.WriteString(strconv.Quote(line) + "\n")
		}
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ifaceReplies, []byte(transcript.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	committed, err := os.ReadFile(ifaceReplies)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	if got := transcript.String(); got != string(committed) {
		gl, cl := strings.Split(got, "\n"), strings.Split(string(committed), "\n")
		for i := range min(len(gl), len(cl)) {
			if gl[i] != cl[i] {
				t.Fatalf("the replies differ from %s at line %d:\n got  %s\n want %s", ifaceReplies, i+1, gl[i], cl[i])
			}
		}
		t.Fatalf("the replies run to %d lines, %s to %d", len(gl), ifaceReplies, len(cl))
	}
}

// exchangeRaw sends one raw request to addr and returns the reply's bytes
// as they came off the socket.
func exchangeRaw(t *testing.T, addr, req string) []byte {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(nc, req); err != nil {
		t.Fatal(err)
	}
	parsed, err := http.ReadRequest(bufio.NewReader(strings.NewReader(req)))
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	resp, err := http.ReadResponse(bufio.NewReader(io.TeeReader(nc, &raw)), parsed)
	if err != nil {
		t.Fatalf("reading the reply to %.40q: %v", req, err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	return raw.Bytes()
}

// streamRaw opens a stream on s with req, and once its first bytes (the
// head, which goes out with the catch-up) have arrived, shuts s down and
// reads the rest to the connection's close.
func streamRaw(t *testing.T, s *Server, addr, req string) []byte {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(nc, req); err != nil {
		t.Fatal(err)
	}
	first := make([]byte, 64<<10)
	n, err := nc.Read(first)
	if err != nil {
		t.Fatalf("reading the head of %.40q: %v", req, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	rest, err := io.ReadAll(nc)
	if err != nil {
		t.Fatalf("reading %.40q to its close: %v", req, err)
	}
	return append(first[:n], rest...)
}
