package ifsvr

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newView returns an Interface Server over a fresh in-memory store, closed
// when the test ends.
func newView(t *testing.T) (*Server, *Store) {
	t.Helper()
	st := NewStore(0, nil)
	t.Cleanup(st.Close)
	return NewView(st), st
}

func TestPublishGetVersioning(t *testing.T) {
	_, s := newView(t)
	if _, err := s.Get("/wsdl/X"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing doc: %v", err)
	}
	if v := s.Publish("/wsdl/X", "text/xml", "<a/>"); v != 1 {
		t.Errorf("first publish version = %d", v)
	}
	if v := s.PublishVersioned("/wsdl/X", "text/xml", "<b/>", 7); v != 2 {
		t.Errorf("second publish version = %d", v)
	}
	d, err := s.Get("/wsdl/X")
	if err != nil {
		t.Fatal(err)
	}
	if d.Content != "<b/>" || d.Version != 2 || d.DescriptorVersion != 7 || d.ContentType != "text/xml" {
		t.Errorf("doc = %+v", d)
	}
	if s.Version("/wsdl/X") != 2 || s.Version("/nope") != 0 {
		t.Error("Version()")
	}
	if len(s.Paths()) != 1 {
		t.Errorf("paths = %v", s.Paths())
	}
}

func TestHTTPServing(t *testing.T) {
	s, st := newView(t)
	st.PublishVersioned("/idl/Calc.idl", "text/plain", "module CalcModule {};", 3)
	base, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.BaseURL() != base {
		t.Error("BaseURL mismatch")
	}

	doc, err := FetchContext(context.Background(), nil, base+"/idl/Calc.idl")
	if err != nil {
		t.Fatal(err)
	}
	if doc.Content != "module CalcModule {};" || doc.Version != 1 || doc.DescriptorVersion != 3 {
		t.Errorf("fetched = %+v", doc)
	}

	if _, err := FetchContext(context.Background(), nil, base+"/missing"); err == nil {
		t.Error("missing doc over HTTP should fail")
	}

	// Non-GET is rejected.
	resp, err := http.Post(base+"/idl/Calc.idl", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d", resp.StatusCode)
	}
}

func TestFetchConnectError(t *testing.T) {
	if _, err := FetchContext(context.Background(), nil, "http://127.0.0.1:1/none"); err == nil {
		t.Error("unreachable fetch should fail")
	}
}

// TestFetchRefusesOversizeDocument: a document over the size limit is an
// error naming the URL and the limit, not a document cut at the limit and
// handed to a compiler as if it were whole.
func TestFetchRefusesOversizeDocument(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		_, _ = w.Write(bytes.Repeat([]byte{' '}, maxDocBytes+1))
	}))
	defer ts.Close()
	doc, err := FetchContext(context.Background(), nil, ts.URL+"/huge")
	if err == nil {
		t.Fatalf("an oversize document was handed on as %d bytes", len(doc.Content))
	}
	if msg := err.Error(); !strings.Contains(msg, ts.URL+"/huge") || !strings.Contains(msg, "16 MiB") {
		t.Errorf("error %q should name the URL and the limit", msg)
	}
}

// TestDocGetIsNotChunked: a document larger than net/http's 2 KB response
// buffer is answered with its exact Content-Length, not chunked, and
// FetchContext reads it whole.
func TestDocGetIsNotChunked(t *testing.T) {
	s, st := newView(t)
	text := strings.Repeat("<operation name=\"op\"/>\n", 300) // ~7 KB, the size of a WSDL
	st.Publish("/wsdl/Big.wsdl", "text/xml", text)
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/wsdl/Big.wsdl")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil || string(body) != text {
		t.Fatalf("GET read %d bytes, %v", len(body), err)
	}
	if resp.ContentLength != int64(len(text)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("Content-Length %d, Transfer-Encoding %v; want %d and none", resp.ContentLength, resp.TransferEncoding, len(text))
	}
	if doc, err := FetchContext(context.Background(), nil, ts.URL+"/wsdl/Big.wsdl"); err != nil || doc.Content != text || doc.Version != 1 {
		t.Errorf("FetchContext = %d bytes at version %d, %v", len(doc.Content), doc.Version, err)
	}
}

// TestReplicaGETNamesLeader: a replica's document GET names its leader in
// LeaderHeader, which FetchLeader hands back; a leader's names none.
func TestReplicaGETNamesLeader(t *testing.T) {
	for _, leader := range []string{"", "http://leader.example:8080"} {
		s, st := newView(t)
		s.LeaderURL = leader
		st.Publish("/doc", "text/plain", "x")
		ts := httptest.NewServer(s)
		doc, got, err := FetchLeader(context.Background(), nil, ts.URL+"/doc")
		ts.Close()
		if err != nil || got != leader || doc.Content != "x" {
			t.Errorf("LeaderURL %q: FetchLeader = %q, %q, %v", leader, doc.Content, got, err)
		}
	}
}

// TestCarriedDocNeedsAllFourCounters: the headers a GET answers with are
// exactly what CarriedDoc reads back; a reply missing one, or carrying one
// that is not a number, carries no document.
func TestCarriedDocNeedsAllFourCounters(t *testing.T) {
	want := Document{Content: "<definitions/>", Version: 3, DescriptorVersion: 8, Epoch: 21, Generation: 1 << 40}
	h := http.Header{}
	DocHeaders(want, h.Set)
	if got, ok := CarriedDoc(want.Content, h.Get); !ok || got != want {
		t.Errorf("CarriedDoc = %+v, %v; want %+v", got, ok, want)
	}
	for _, name := range []string{VersionHeader, DescriptorVersionHeader, EpochHeader, GenerationHeader} {
		for _, bad := range []string{"", "-1", "x"} {
			h2 := h.Clone()
			h2.Set(name, bad)
			if got, ok := CarriedDoc(want.Content, h2.Get); ok {
				t.Errorf("%s: %q: carried %+v", name, bad, got)
			}
		}
	}
}

// TestFetchKeepsConnAcrossNon200: a refused fetch drains its answer, so
// the next fetch on the same client reuses the keep-alive connection.
func TestFetchKeepsConnAcrossNon200(t *testing.T) {
	var conns []string // the handler runs one request at a time here
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conns = append(conns, r.RemoteAddr)
		if len(conns) == 1 {
			http.Error(w, strings.Repeat("document not published\n", 64), http.StatusNotFound)
			return
		}
		_, _ = io.WriteString(w, "<doc/>")
	}))
	defer ts.Close()
	hc := &http.Client{Transport: &http.Transport{}}
	if _, err := FetchContext(context.Background(), hc, ts.URL+"/doc"); err == nil {
		t.Fatal("a 404 should fail the fetch")
	}
	if doc, err := FetchContext(context.Background(), hc, ts.URL+"/doc"); err != nil || doc.Content != "<doc/>" {
		t.Fatalf("second fetch: %+v, %v", doc, err)
	}
	if len(conns) != 2 || conns[0] != conns[1] {
		t.Errorf("the fetch after a 404 arrived from %v, want the same connection twice", conns)
	}
}

func TestVersionsAreMonotonePerPath(t *testing.T) {
	_, s := newView(t)
	var last uint64
	for i := 0; i < 50; i++ {
		v := s.Publish("/p", "text/plain", "content")
		if v != last+1 {
			t.Fatalf("version %d after %d", v, last)
		}
		last = v
	}
	// Independent path counts separately.
	if v := s.Publish("/q", "text/plain", "c"); v != 1 {
		t.Errorf("other path version = %d", v)
	}
}

// TestLegacyWatchQueryIsPlainGET: the long-poll endpoint is gone, so a
// "?watch=1&after=<current>" request — which used to park until the next
// commit — is answered at once as the plain document GET it now is, with
// every header a fetch carries.
func TestLegacyWatchQueryIsPlainGET(t *testing.T) {
	s, st := newView(t)
	st.PublishVersioned("/wsdl/W.wsdl", "text/xml", "<v1/>", 7)
	base, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	hc := &http.Client{Timeout: 2 * time.Second}
	doc, err := FetchContext(context.Background(), hc, base+"/wsdl/W.wsdl?watch=1&after=1")
	if err != nil {
		t.Fatalf("GET ?watch=1 with nothing newer to wait for: %v", err)
	}
	want := Document{Content: "<v1/>", Version: 1, DescriptorVersion: 7, Epoch: 1,
		Generation: st.Generation(), ContentType: "text/xml"}
	if doc != want || doc.Generation == 0 {
		t.Errorf("doc = %+v, want %+v", doc, want)
	}
}
