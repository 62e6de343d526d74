package ifsvr

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestAllocsAllPathsCollect: a held all-paths stream writes the journal's
// payload bytes in SSE framing, each retired floor at its place in epoch
// order, into buffers it reuses, so a steady-state collect of pending
// events allocates nothing.
func TestAllocsAllPathsCollect(t *testing.T) {
	st := NewStore(0, nil)
	defer st.Close()
	st.Publish("/wsdl/A.wsdl", "text/xml", "<a1/>")
	st.Publish("/idl/B<&>.idl", "text/plain", "interface B {\n};")
	st.Publish("/wsdl/A.wsdl", "text/xml", `<a2 note="&"/>`)
	st.Remove("/idl/B<&>.idl")
	st.Publish("/wsdl/C.wsdl", "text/xml", "<c1/>")

	var want bytes.Buffer
	for i, ev := range st.CloneState().Journal {
		fmt.Fprintf(&want, "id: %d\nevent: version\ndata: %s\n\n", ev.Doc.Epoch, ev.Payload)
		if i == 2 {
			floor, _ := json.Marshal(struct {
				Path    string `json:"path"`
				Version uint64 `json:"version"`
			}{"/idl/B<&>.idl", 1})
			fmt.Fprintf(&want, "id: 3\nevent: remove\ndata: %s\n\n", floor)
		}
	}
	src := &allSource{st: st, gen: st.Generation(), live: true}
	var out bytes.Buffer
	src.Collect(&out)
	if out.String() != want.String() {
		t.Fatalf("collected events differ from the journal's bytes:\n got %q\nwant %q", out.String(), want.String())
	}
	if src.cursor != 4 || src.retireCount != 1 {
		t.Fatalf("cursor after collect = epoch %d, %d floors; want 4, 1", src.cursor, src.retireCount)
	}
	allocs := testing.AllocsPerRun(100, func() {
		src.cursor, src.retireCount = 0, 0
		src.Collect(io.Discard)
	})
	if allocs != 0 {
		t.Errorf("a steady-state collect of 5 pending events allocates %.1f times, want 0", allocs)
	}
}

// readEvents holds a stream of url past epoch after until it has read n
// events.
func readEvents(t *testing.T, url string, after uint64, n int) []StreamEvent {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var evs []StreamEvent
	_ = WatchStream(ctx, nil, url, after, func(ev StreamEvent) {
		if evs = append(evs, ev); len(evs) == n {
			cancel()
		}
	})
	if len(evs) != n {
		t.Fatalf("read %d events past epoch %d, want %d", len(evs), after, n)
	}
	return evs
}

// TestAllPathsStreamCatchUp: an all-paths stream replays the journal past
// a cursor it covers; a cursor of 0 (a follower holding nothing) or one
// below the journal floor gets a snapshot reset — every document in epoch
// order. Either way every retired floor follows the commit it came after.
// Neither form counts in Fanout.
func TestAllPathsStreamCatchUp(t *testing.T) {
	st, docURL := startStreamServer(t, StoreConfig{HistoryLen: 4})
	url := strings.TrimSuffix(docURL, "/wsdl/S.wsdl") + AllPath
	st.Publish("/a", "text/plain", "a1")
	st.Publish("/gone", "text/plain", "g1")
	st.Publish("/b", "text/plain", "b1")
	st.Remove("/gone")

	describe := func(evs []StreamEvent) (out []string) {
		for _, ev := range evs {
			kind := map[bool]string{true: "snapshot", false: "replay"}[ev.Snapshot]
			if ev.Removed {
				kind = "remove"
			}
			out = append(out, fmt.Sprintf("%s %s v%d", kind, ev.Path, ev.Doc.Version))
		}
		return out
	}
	check := func(after uint64, want ...string) {
		t.Helper()
		if got := describe(readEvents(t, url, after, len(want))); strings.Join(got, "; ") != strings.Join(want, "; ") {
			t.Fatalf("after %d: got %q, want %q", after, got, want)
		}
	}
	check(0, "snapshot /a v1", "snapshot /b v1", "remove /gone v1")
	check(1, "replay /gone v1", "replay /b v1", "remove /gone v1")
	for i := 2; i <= 5; i++ {
		st.Publish("/a", "text/plain", fmt.Sprintf("a%d", i))
	}
	check(1, "snapshot /b v1", "remove /gone v1", "snapshot /a v5")

	stats := st.Stats()
	if rs := stats.Replication; rs == nil || rs.Role != "leader" || rs.Bootstraps != 2 || rs.Removes != 3 {
		t.Fatalf("leader Replication block = %+v, want 2 bootstraps and 3 floors sent", rs)
	}
	if stats.Fanout.Streams != 0 || stats.Fanout.Batches != 0 {
		t.Fatalf("all-paths streams counted in Fanout: %+v", stats.Fanout)
	}
}

// TestReadStreamRefusesUndecodableData: an event whose data line does not
// decode ends the stream with ErrStreamCorrupt instead of being skipped —
// the next event must not move the caller's cursor past the lost one.
func TestReadStreamRefusesUndecodableData(t *testing.T) {
	event := func(v uint64) string {
		d := Document{Content: fmt.Sprintf("v%d", v), Version: v, Epoch: v}
		return fmt.Sprintf("id: %d\nevent: version\ndata: %s\n\n", v, encodeEventPayload("/doc", d))
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", StreamContentType)
		_, _ = io.WriteString(w, event(1)+"id: 2\nevent: version\ndata: {\"version\":\n\n"+event(3))
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}))
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var got []uint64
	err := WatchStream(ctx, nil, srv.URL+"/doc", 0, func(ev StreamEvent) { got = append(got, ev.Doc.Version) })
	if !errors.Is(err, ErrStreamCorrupt) {
		t.Fatalf("watch ended with %v, want ErrStreamCorrupt", err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("delivered versions %v, want [1] and then the error", got)
	}
}

// streamSeeds are representative stream bodies: a per-path stream
// (replay, heartbeat, live version, eviction), an all-paths one (snapshot,
// remove, version, draining), and the shapes a reader must survive: a cut,
// CRLF line ends, an undecodable data line, a second data line, blank and
// spaced fields, and nothing at all.
func streamSeeds() [][]byte {
	ev := func(event, path string, v uint64) string {
		d := Document{Content: "<x a=\"&\"/>\n", ContentType: "text/xml", Version: v, DescriptorVersion: v, Epoch: 10 + v}
		return string(appendEvent(nil, d.Epoch, event, encodeEventPayload(path, d)))
	}
	perPath := ev("replay", "/wsdl/C.wsdl", 1) + ": hb\n\n" + ev("version", "/wsdl/C.wsdl", 2) +
		"event: eviction\ndata: {\"pending\":9,\"budget\":8}\n\n"
	allPaths := ev("snapshot", "/wsdl/C.wsdl", 2) + ev("snapshot", "/idl/C.idl", 3) +
		"id: 12\nevent: remove\ndata: {\"path\":\"/gone\",\"version\":4}\n\n" +
		ev("version", "/wsdl/C.wsdl", 5) + "event: draining\ndata: {}\n\n"
	return [][]byte{
		[]byte(perPath),
		[]byte(allPaths),
		[]byte(allPaths[:len(allPaths)/2]),
		[]byte(strings.ReplaceAll(perPath, "\n", "\r\n")),
		[]byte(ev("version", "/a", 1) + "event: version\ndata: {\"version\":\n\n" + ev("version", "/a", 3)),
		[]byte("event: version\ndata: {\"path\":\"/a\",\"version\":1}\ndata: {\"path\":\"/b\",\"version\":2}\n\n"),
		[]byte("event:remove\ndata:{\"path\":\"/gone\",\"version\":1}\n\n"),
		[]byte("\n\n: hb\n\nid: 1\n\nevent: version\ndata: \n\n"),
		[]byte("event: draining\ndata: {}\n\n"),
		[]byte(ev("version", "/a", 1)),
		{},
	}
}

// FuzzReadStream drives the SSE reader with arbitrary bytes: it must never
// panic, must end with an error, and every event it delivers must carry
// its data line's bytes as Payload, which re-decode to the delivered path
// and document.
func FuzzReadStream(f *testing.F) {
	for _, seed := range streamSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		err := readStream(context.Background(), bytes.NewReader(data), 7, func(ev StreamEvent) {
			if !bytes.Contains(data, ev.Payload) {
				t.Fatalf("payload %q is not in the stream", ev.Payload)
			}
			var w streamWire
			if err := json.Unmarshal(ev.Payload, &w); err != nil {
				t.Fatalf("delivered payload %q does not decode: %v", ev.Payload, err)
			}
			want := Document{Content: w.Content, Version: w.Version, DescriptorVersion: w.DescriptorVersion,
				Epoch: w.Epoch, Generation: 7, ContentType: w.ContentType}
			if ev.Doc != want || ev.Path != w.Path {
				t.Fatalf("delivered %s %+v, its payload decodes to %s %+v", ev.Path, ev.Doc, w.Path, want)
			}
			if ev.Replayed && ev.Snapshot || ev.Removed && (ev.Replayed || ev.Snapshot) {
				t.Fatalf("event marked with two kinds: %+v", ev)
			}
		})
		if err == nil {
			t.Fatal("readStream returned nil")
		}
	})
}
