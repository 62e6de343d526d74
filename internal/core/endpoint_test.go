package core_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/h2b"
	"livedev/internal/jsonb"
	"livedev/internal/soap"
)

// endpointBinding builds one HTTP binding's raw call request.
type endpointBinding struct {
	tech    core.Technology
	path    string // the mount, without the class name
	request func(class, method string, arg int32) (header, body string)
}

var endpointBindings = []endpointBinding{
	{core.TechSOAP, "/soap/", func(class, method string, arg int32) (string, string) {
		env, err := soap.BuildRequest("urn:"+class, method, []soap.NamedValue{{Name: "a", Value: dyn.Int32Value(arg)}})
		if err != nil {
			panic(err)
		}
		return "Content-Type: text/xml; charset=utf-8\r\nSOAPAction: \"urn:" + class + "#" + method + "\"\r\n", env
	}},
	{jsonb.Name, "/json/", func(_, method string, arg int32) (string, string) {
		return "Content-Type: " + jsonb.ContentType + "\r\n", `{"method":"` + method + `","args":[` + strconv.Itoa(int(arg)) + `]}`
	}},
	{h2b.Name, "/h2b/", func(_, method string, arg int32) (string, string) {
		return "Content-Type: " + h2b.CallContentType + "\r\n" + h2b.MethodHeader + ": " + method + "\r\n" +
			h2b.OrderHeader + ": " + h2b.OrderBig + "\r\n", string(binary.BigEndian.AppendUint32(nil, uint32(arg)))
	}},
}

// rawPost renders a POST of body to path with the given header lines.
func rawPost(path, header, body string) string {
	return "POST " + path + " HTTP/1.1\r\nHost: livedev\r\n" + header +
		"Content-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body
}

// endpointClass is a class whose methods each take and return one int32:
// twice doubles, fail returns an application error, count counts its runs,
// and slow, when hold is set, signals entered and waits for hold to close.
func endpointClass(t *testing.T, name string, ran *atomic.Int32, entered chan<- struct{}, hold <-chan struct{}) *dyn.Class {
	t.Helper()
	c := dyn.NewClass(name)
	bodies := map[string]dyn.Body{
		"twice": func(_ *dyn.Instance, a []dyn.Value) (dyn.Value, error) { return dyn.Int32Value(2 * a[0].Int32()), nil },
		"fail": func(*dyn.Instance, []dyn.Value) (dyn.Value, error) {
			return dyn.Value{}, errors.New("the body failed")
		},
		"count": func(_ *dyn.Instance, a []dyn.Value) (dyn.Value, error) { ran.Add(1); return a[0], nil },
		"slow": func(_ *dyn.Instance, a []dyn.Value) (dyn.Value, error) {
			entered <- struct{}{}
			<-hold
			return a[0], nil
		},
	}
	for _, m := range []string{"twice", "fail", "count", "slow"} {
		if _, err := c.AddMethod(dyn.MethodSpec{Name: m, Params: []dyn.Param{{Name: "a", Type: dyn.Int32T}},
			Result: dyn.Int32T, Distributed: true, Body: bodies[m]}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// exchangeRaw sends req on a new connection and returns the raw bytes of
// the one reply, read to its end.
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
	var raw bytes.Buffer
	resp, err := http.ReadResponse(bufio.NewReader(io.TeeReader(nc, &raw)), nil)
	if err != nil {
		t.Fatalf("reading the reply to %.40q: %v", req, err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	return raw.Bytes()
}

var (
	dateValue    = regexp.MustCompile(`(?m)^Date: [^\r]*\r$`)
	metricsCount = regexp.MustCompile(`(livedev_endpoint_requests_total\{path="/metrics"\}) \d+`)

	// What else varies between runs, masked in the committed replies: the
	// store's random generation (a header on stale replies, a line of
	// /metrics), the loopback ports the documents name, and so the length
	// of the /metrics body.
	generationValue = regexp.MustCompile(`(?m)^(X-Store-Generation: |livedev_store_generation )\d+`)
	loopbackAddr    = regexp.MustCompile(`127\.0\.0\.1:\d+`)
	contentLength   = regexp.MustCompile(`(?m)^Content-Length: \d+\r$`)
)

var update = flag.Bool("update", false, "rewrite the transcripts in testdata from the live replies")

// endpointReplies is the committed transcript of TestEndpointRepliesMatchNetHTTP's
// live replies: for each row, its name, then the reply one quoted line at
// a time.
const endpointReplies = "testdata/endpoint_replies.txt"

// TestEndpointRepliesMatchNetHTTP serves the manager's endpoint handler
// on net/http as well and compares every reply byte for byte, Date's
// value aside: each HTTP binding's result, application fault, stale fault
// carrying the document, malformed request, call before CreateInstance
// and GET, and /metrics. It then compares the live replies with the
// committed transcript in testdata, which -update rewrites.
func TestEndpointRepliesMatchNetHTTP(t *testing.T) {
	core.RegisterBinding(jsonb.New())
	core.RegisterBinding(h2b.New())
	m, err := core.NewManager(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	oracle := httptest.NewServer(core.EndpointHandler(m))
	defer oracle.Close()
	live := strings.TrimPrefix(m.HTTPBaseURL(), "http://")
	std := strings.TrimPrefix(oracle.URL, "http://")

	var ran atomic.Int32
	type row struct{ name, req string }
	var rows []row
	for _, b := range endpointBindings {
		class := "Oracle" + string(b.tech)
		srv, err := m.Register(endpointClass(t, class, &ran, nil, nil), b.tech)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.CreateInstance(); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Register(endpointClass(t, class+"Idle", &ran, nil, nil), b.tech); err != nil {
			t.Fatal(err)
		}
		call := func(method string) string {
			h, body := b.request(class, method, 21)
			return rawPost(b.path+class, h, body)
		}
		idleHeader, idleBody := b.request(class+"Idle", "twice", 21)
		malformed, _ := b.request(class, "twice", 21)
		if b.tech == h2b.Name {
			malformed = strings.Replace(malformed, h2b.MethodHeader+": twice", h2b.MethodHeader+":", 1)
		}
		rows = append(rows,
			row{"ok", call("twice")},
			row{"application fault", call("fail")},
			row{"stale with document", call("renamedAway")},
			row{"malformed", rawPost(b.path+class, malformed, "{<")},
			row{"not initialized", rawPost(b.path+class+"Idle", idleHeader, idleBody)},
			row{"GET", "GET " + b.path + class + " HTTP/1.1\r\nHost: livedev\r\n\r\n"},
		)
		for i := len(rows) - 6; i < len(rows); i++ {
			rows[i].name = string(b.tech) + " " + rows[i].name
		}
	}
	rows = append(rows, row{"metrics", "GET /metrics HTTP/1.1\r\nHost: livedev\r\n\r\n"})

	mask := func(b []byte) string {
		return metricsCount.ReplaceAllString(string(dateValue.ReplaceAll(b, []byte("Date: *\r"))), "$1 *")
	}
	var transcript strings.Builder
	for _, r := range rows {
		want := mask(exchangeRaw(t, std, r.req))
		got := mask(exchangeRaw(t, live, r.req))
		if got != want {
			t.Errorf("%s: the endpoint replied\n%q\nnet/http replies\n%q", r.name, got, want)
		}
		got = loopbackAddr.ReplaceAllString(generationValue.ReplaceAllString(got, "${1}*"), "127.0.0.1:*")
		if r.name == "metrics" {
			got = contentLength.ReplaceAllString(got, "Content-Length: *\r")
		}
		transcript.WriteString("=== " + r.name + "\n")
		for line := range strings.SplitAfterSeq(got, "\n") {
			transcript.WriteString(strconv.Quote(line) + "\n")
		}
	}
	checkTranscript(t, endpointReplies, transcript.String())
}

// checkTranscript compares got with the committed transcript at path,
// after writing got there under -update.
func checkTranscript(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	committed, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	if got != string(committed) {
		gl, cl := strings.Split(got, "\n"), strings.Split(string(committed), "\n")
		for i := range min(len(gl), len(cl)) {
			if gl[i] != cl[i] {
				t.Fatalf("the replies differ from %s at line %d:\n got  %s\n want %s", path, i+1, gl[i], cl[i])
			}
		}
		t.Fatalf("the replies run to %d lines, %s to %d", len(gl), path, len(cl))
	}
}
