package ifsvr

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"
)

func TestPublishGetVersioning(t *testing.T) {
	s := New()
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

func TestZeroValueServerUsable(t *testing.T) {
	var s Server
	s.Publish("/p", "text/plain", "x")
	if d, err := s.Get("/p"); err != nil || d.Content != "x" {
		t.Errorf("zero-value server: %v, %v", d, err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("close without start: %v", err)
	}
}

func TestHTTPServing(t *testing.T) {
	s := New()
	s.PublishVersioned("/idl/Calc.idl", "text/plain", "module CalcModule {};", 3)
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

func TestVersionsAreMonotonePerPath(t *testing.T) {
	s := New()
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

func TestWatchEndpointLongPoll(t *testing.T) {
	s := New()
	s.PublishVersioned("/wsdl/W.wsdl", "text/xml", "<v1/>", 1)
	base, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	url := base + "/wsdl/W.wsdl"

	// A poll for an already-newer version returns immediately.
	doc, err := WatchContext(context.Background(), nil, url, 0)
	if err != nil || doc.Content != "<v1/>" || doc.Version != 1 {
		t.Fatalf("watch after=0: %+v, %v", doc, err)
	}

	// A poll parked on the current version is released by the publication.
	done := make(chan Document, 1)
	go func() {
		d, err := WatchNewer(context.Background(), nil, url, 1)
		if err == nil {
			done <- d
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the poll park
	s.PublishVersioned("/wsdl/W.wsdl", "text/xml", "<v2/>", 2)
	select {
	case d := <-done:
		if d.Content != "<v2/>" || d.Version != 2 || d.DescriptorVersion != 2 {
			t.Errorf("pushed doc = %+v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch poll was not released by the publication")
	}

	// A bounded poll with no publication answers 304 -> ErrNotModified,
	// carrying the current version headers.
	d, err := WatchContext(context.Background(), nil, url+"?timeout=50ms", 2)
	if !errors.Is(err, ErrNotModified) {
		t.Fatalf("idle bounded poll: %+v, %v", d, err)
	}
	if d.Version != 2 {
		t.Errorf("304 version header = %d", d.Version)
	}

	// Watching a never-published path 404s after the poll window.
	if _, err := WatchContext(context.Background(), nil, base+"/nope?timeout=50ms", 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("unpublished watch: %v", err)
	}
}
