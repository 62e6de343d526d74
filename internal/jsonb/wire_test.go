package jsonb

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"livedev/internal/core"
	"livedev/internal/dyn"
)

// maxBodyBytes is internal/h1's cap on a call body.
const maxBodyBytes = 16 << 20

// post sends one raw body to the endpoint and returns the status, the
// Content-Length header and the body.
func post(t *testing.T, url, body string) (int, string, string) {
	t.Helper()
	resp, err := http.Post(url, ContentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Length"), string(raw)
}

// errorCode extracts error.code from a reply the way a foreign client
// would: with encoding/json.
func errorCode(t *testing.T, body string) string {
	t.Helper()
	var reply struct {
		Error *struct{ Code, Message string }
	}
	if err := json.Unmarshal([]byte(body), &reply); err != nil || reply.Error == nil {
		t.Fatalf("not an error reply: %q (%v)", body, err)
	}
	return reply.Error.Code
}

// TestNullArgumentTakesStalePath: a null where a typed argument belongs
// means the caller encoded against some other signature. The parent decoded
// it as zero and ran the method; it must take the Section 5.7 path instead —
// "non-existent-method", after forcing the published document current when
// publication is reactive.
func TestNullArgumentTakesStalePath(t *testing.T) {
	for _, reactive := range []bool{true, false} {
		mgr, err := core.NewManager(core.Config{Timeout: 30 * time.Minute, ActivePublishingOnly: !reactive})
		if err != nil {
			t.Fatal(err)
		}
		var ran atomic.Int32
		class := dyn.NewClass("JNull")
		spec := dyn.MethodSpec{
			Name:        "add",
			Params:      []dyn.Param{{Name: "a", Type: dyn.Int32T}, {Name: "b", Type: dyn.Int32T}},
			Result:      dyn.Int32T,
			Distributed: true,
			Body: func(_ *dyn.Instance, args []dyn.Value) (dyn.Value, error) {
				ran.Add(1)
				return dyn.Int32Value(args[0].Int32() + args[1].Int32()), nil
			},
		}
		if _, err := class.AddMethod(spec); err != nil {
			t.Fatal(err)
		}
		srv, err := mgr.Register(class, core.Technology(Name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.CreateInstance(); err != nil {
			t.Fatal(err)
		}
		endpoint := srv.Endpoint()
		srv.Publisher().WaitIdle()

		// An interface edit the stability timer (30 min) will not publish.
		spec.Name = "sub"
		if _, err := class.AddMethod(spec); err != nil {
			t.Fatal(err)
		}
		before := srv.Publisher().Stats()

		status, _, body := post(t, endpoint, `{"method":"add","args":[null,2]}`)
		if status != http.StatusNotFound || errorCode(t, body) != CodeNonExistentMethod {
			t.Errorf("reactive=%v: args:[null,2] answered %d %s, want 404 %s", reactive, status, body, CodeNonExistentMethod)
		}
		if n := ran.Load(); n != 0 {
			t.Errorf("reactive=%v: the method ran %d times on a null argument", reactive, n)
		}
		after := srv.Publisher().Stats()
		forced := after.Forced - before.Forced
		if reactive && forced != 1 {
			t.Errorf("stale call forced %d publications, want 1", forced)
		}
		if !reactive && (forced != 0 || after.ForcedNoop != before.ForcedNoop) {
			t.Errorf("active-only publishing: stale call forced a publication: %+v -> %+v", before, after)
		}

		// The well-typed call still runs.
		status, length, body := post(t, endpoint, `{"method":"add","args":[40,2]}`)
		if status != http.StatusOK || body != `{"result":42}` || length != "13" {
			t.Errorf("add(40,2) answered %d %q (Content-Length %q)", status, body, length)
		}
		mgr.Close()
	}
}

func TestServerRejectsTrailingDataAndOversizeBodies(t *testing.T) {
	mgr, err := core.NewManager(core.Config{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	srv, err := mgr.Register(calcClass(t), core.Technology(Name))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	endpoint := srv.Endpoint()

	for _, body := range []string{
		`{"method":"add","args":[1,2]}x`,
		`{"method":"add","args":[1,2]}{"method":"add","args":[1,2]}`,
		`{"method":"add","args":[1,2]`,
		`{"method":"nope","args":[1,]}`,
		``,
	} {
		status, _, reply := post(t, endpoint, body)
		if status != http.StatusBadRequest || errorCode(t, reply) != CodeMalformed {
			t.Errorf("%q answered %d %s, want 400 %s", body, status, reply, CodeMalformed)
		}
	}
	// Whitespace after the envelope (the parent's encoder ends with a
	// newline) and members in any order are fine.
	if status, _, reply := post(t, endpoint, " {\"args\":[1,2],\"method\":\"add\"}\r\n"); status != http.StatusOK || reply != `{"result":3}` {
		t.Errorf("reordered call answered %d %s", status, reply)
	}

	// One byte past the cap is refused, as a declared length and as a
	// stream that never declares one.
	huge := `{"method":"add","args":[1,2],"pad":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	if status, _, reply := post(t, endpoint, huge); status != http.StatusBadRequest || errorCode(t, reply) != CodeMalformed {
		t.Errorf("oversize body answered %d %.80s", status, reply)
	}
	resp, err := http.Post(endpoint, ContentType, io.MultiReader(strings.NewReader(huge))) // not a *strings.Reader: chunked
	if err != nil {
		t.Fatal(err)
	}
	reply, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || errorCode(t, string(reply)) != CodeMalformed {
		t.Errorf("oversize chunked body answered %d %.80s", resp.StatusCode, reply)
	}
}

func TestCallerBoundsAndValidatesReply(t *testing.T) {
	var reply atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = io.WriteString(w, reply.Load().(string))
	}))
	defer ts.Close()
	caller := &Caller{Endpoint: ts.URL}
	sig := dyn.MethodSig{Name: "get", Result: dyn.StringT}
	call := func(body string) (dyn.Value, error) {
		reply.Store(body)
		return caller.Call(context.Background(), sig, nil)
	}

	if v, err := call(`{"result":"ok"}` + "\n"); err != nil || v.Str() != "ok" {
		t.Errorf("plain reply: %v, %v", v, err)
	}
	if _, err := call(`{"result":"` + strings.Repeat("x", maxBodyBytes) + `"}`); err == nil || !strings.Contains(err.Error(), "exceeds 16 MiB") {
		t.Errorf("oversize reply: %v, want the 16 MiB error", err)
	}
	for _, bad := range []string{`{"result":"ok"}x`, `{"result":"ok"}{}`, `{"result":"ok"`, `{"result":null}`, `{}`, `not json`} {
		if v, err := call(bad); err == nil {
			t.Errorf("reply %q accepted as %v", bad, v)
		}
	}
}
