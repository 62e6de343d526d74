package cde

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"livedev/internal/dyn"
	"livedev/internal/ifsvr"
)

// carryingStale is a fake binding's stale reply, carrying doc.
func carryingStale(doc *ifsvr.Document) error {
	return &StaleReply{Doc: doc, Err: errors.New("fake: non-existent method")}
}

// opsBinding compiles documents of the form "ops:a,b,c" into one method per
// name; its Caller refuses every call with stale.
func opsBinding(stale error) DocBinding {
	return DocBinding{
		Technology: "OPS",
		Compile: func(doc ifsvr.Document, _ string) (dyn.InterfaceDescriptor, Caller, error) {
			names, ok := strings.CutPrefix(doc.Content, "ops:")
			if !ok {
				return dyn.InterfaceDescriptor{}, nil, errors.New("not an ops document")
			}
			return descWith(strings.Split(names, ",")...), refusing{stale}, nil
		},
	}
}

type refusing struct{ err error }

func (r refusing) Call(context.Context, dyn.MethodSig, []dyn.Value) (dyn.Value, error) {
	return dyn.Value{}, r.err
}

// TestStaleReplyDocumentOrFetch: a stale reply's carried document is
// installed with no document fetch; a reply carrying none, or one that is
// unversioned, oversize or does not compile, falls back to one fetch. A
// carried document no newer than the view is not installed, and not
// fetched around either.
func TestStaleReplyDocumentOrFetch(t *testing.T) {
	var (
		mu   sync.Mutex
		doc  = ifsvr.Document{Content: "ops:ping", Version: 1}
		gets atomic.Int64
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gets.Add(1)
		mu.Lock()
		d := doc
		mu.Unlock()
		ifsvr.DocHeaders(d, w.Header().Set)
		_, _ = w.Write([]byte(d.Content))
	}))
	defer ts.Close()
	publish := func(d ifsvr.Document) {
		mu.Lock()
		doc = d
		mu.Unlock()
	}

	current := ifsvr.Document{Content: "ops:pong", Version: 2, DescriptorVersion: 2, Epoch: 2, Generation: 1}
	for _, tc := range []struct {
		name    string
		carried *ifsvr.Document
		fetches int64
		has     string
	}{
		{"carried", &current, 0, "pong"},
		{"none", nil, 1, "pong"},
		{"unversioned", &ifsvr.Document{Content: "ops:pong"}, 1, "pong"},
		{"oversize", &ifsvr.Document{Content: "ops:pong," + strings.Repeat("x", ifsvr.MaxCarriedDoc), Version: 2}, 1, "pong"},
		{"does not compile", &ifsvr.Document{Content: "<definitions/>", Version: 2}, 1, "pong"},
		{"the view's own version", &ifsvr.Document{Content: "ops:old", Version: 1, Generation: 1}, 0, "ping"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			publish(ifsvr.Document{Content: "ops:ping", Version: 1, Generation: 1})
			b := opsBinding(carryingStale(tc.carried))
			c, err := ConnectDocs(context.Background(), ts.URL+"/doc", nil, b)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			publish(current)
			before := gets.Load()

			_, err = c.CallContext(context.Background(), "ping")
			if !errors.Is(err, ErrStaleMethod) {
				t.Fatalf("call = %v", err)
			}
			if n := gets.Load() - before; n != tc.fetches {
				t.Errorf("the stale recovery fetched the document %d times, want %d", n, tc.fetches)
			}
			if _, ok := c.Interface().Lookup(tc.has); !ok {
				t.Errorf("view %v lacks %s", c.Interface().Methods, tc.has)
			}
		})
	}
}
