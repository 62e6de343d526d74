package repl_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"livedev/internal/ifsvr"
	"livedev/internal/repl"
)

// streamGen is the leader generation the shipped tails are served under.
const streamGen = 42

// A streamSeed is one shipped tail and the follower state it must leave:
// each path's version (nil when the seed is only there to be survived).
type streamSeed struct {
	data []byte
	want map[string]uint64
}

// streamSeeds builds representative tails of a leader's all-paths stream:
// commits across several paths, those commits and a retirement, a snapshot
// reset of a whole store, a heartbeat, their concatenation, a tail cut
// mid-event, one whose retirement's data line does not decode, a data line
// without its field name, and bytes that are no stream at all.
func streamSeeds() []streamSeed {
	event := func(kind, path string, version, epoch uint64) []byte {
		d := ifsvr.Document{Content: "<x a=\"&\"/>\n", ContentType: "text/xml", Version: version, DescriptorVersion: version, Epoch: epoch}
		return []byte("id: " + strconv.FormatUint(epoch, 10) + "\nevent: " + kind + "\ndata: " + string(ifsvr.EventPayload(path, d)) + "\n\n")
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

	commit := cat(event("version", "/wsdl/Calc.wsdl", 1, 1), event("version", "/idl/Calc.idl", 1, 2), event("version", "/jsonif/Calc.json", 1, 3))
	remove := []byte("id: 4\nevent: remove\ndata: {\"path\":\"/wsdl/Calc.wsdl\",\"version\":3}\n\n")
	boot := cat(event("snapshot", "/wsdl/Calc.wsdl", 4, 7), event("snapshot", "/idl/Calc.idl", 2, 8))
	hb := []byte(": hb\n\n")

	flipped := cat(commit, remove, boot)
	flipped[len(commit)+bytes.Index(remove, []byte("{"))+1] ^= 0x40
	bare := ifsvr.EventPayload("/wsdl/Calc.wsdl", ifsvr.Document{Content: "<x/>", Version: 1, Epoch: 1})

	return []streamSeed{
		{commit, map[string]uint64{"/wsdl/Calc.wsdl": 1, "/idl/Calc.idl": 1, "/jsonif/Calc.json": 1}},
		{cat(commit, remove), map[string]uint64{"/idl/Calc.idl": 1, "/jsonif/Calc.json": 1}},
		{boot, map[string]uint64{"/wsdl/Calc.wsdl": 4, "/idl/Calc.idl": 2}},
		{hb, map[string]uint64{}},
		{cat(commit, remove, boot, hb), map[string]uint64{"/wsdl/Calc.wsdl": 4, "/idl/Calc.idl": 2, "/jsonif/Calc.json": 1}},
		{cat(commit, remove, boot[:len(boot)-5]), map[string]uint64{"/wsdl/Calc.wsdl": 4, "/idl/Calc.idl": 1, "/jsonif/Calc.json": 1}},
		{flipped, map[string]uint64{"/wsdl/Calc.wsdl": 1, "/idl/Calc.idl": 1, "/jsonif/Calc.json": 1}},
		{cat(bare, []byte("\n\n")), map[string]uint64{}},
		{[]byte{}, map[string]uint64{}},
		{[]byte{1, 0, 0, 0}, nil},
		{append([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0}, bytes.Repeat([]byte{'a'}, 32)...), nil},
	}
}

// shipTail serves data as a leader's all-paths stream: each of the first
// serve connects gets the bytes, then the end of the stream. The connect
// after them closes drained and is held open until the client goes, so a
// follower that reconnects has applied everything it was shipped.
func shipTail(t *testing.T, data []byte, serve int32) (url string, drained <-chan struct{}) {
	t.Helper()
	var connects atomic.Int32
	var once sync.Once
	done := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ifsvr.StreamContentType)
		w.Header().Set(ifsvr.GenerationHeader, strconv.Itoa(streamGen))
		w.Header().Set(ifsvr.EpochHeader, "0")
		if connects.Add(1) > serve {
			once.Do(func() { close(done) })
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush()
			<-r.Context().Done()
			return
		}
		_, _ = w.Write(data)
	}))
	t.Cleanup(srv.Close)
	return srv.URL, done
}

// followTail runs a follower against one shipped tail and returns its
// store once the follower has applied the tail and reconnected.
func followTail(t *testing.T, data []byte) *ifsvr.Store {
	t.Helper()
	url, drained := shipTail(t, data, 1)
	f, err := repl.OpenFollower(repl.FollowerConfig{Leader: url, RetryDelay: time.Millisecond})
	if err != nil {
		t.Fatalf("opening follower: %v", err)
	}
	t.Cleanup(f.Close)
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("follower never reconnected after the shipped tail")
	}
	return f.Store()
}

// checkApplied asserts that nothing reached the follower's store but what
// the stream reader delivered from data: every document held is one a
// delivered event carried, and every journaled version — what the
// follower's own watchers are sent — carries a data line of data
// verbatim, which decodes to that version.
func checkApplied(t *testing.T, data []byte, st *ifsvr.Store) {
	t.Helper()
	url, _ := shipTail(t, data, 1)
	s, err := ifsvr.OpenStream(context.Background(), nil, url+ifsvr.AllPath, 0)
	if err != nil {
		t.Fatalf("reading the shipped tail: %v", err)
	}
	delivered := map[string][]ifsvr.Document{}
	_ = s.Read(context.Background(), func(ev ifsvr.StreamEvent) {
		if !ev.Removed {
			ev.Doc.Generation = 0
			delivered[ev.Path] = append(delivered[ev.Path], ev.Doc)
		}
	})
	for _, path := range st.Paths() {
		got, err := st.Get(path)
		if err != nil {
			t.Fatalf("listed path %s: %v", path, err)
		}
		got.Generation = 0
		if !slices.Contains(delivered[path], got) {
			t.Fatalf("follower holds %s %+v, which the stream never delivered", path, got)
		}
		journal, _ := st.ReplayEventsInto(path, 0, nil)
		for _, ev := range journal {
			if !bytes.Contains(data, ev.Payload) {
				t.Fatalf("journaled payload %q of %s is not in the stream", ev.Payload, path)
			}
			var w struct {
				Path              string `json:"path"`
				Version           uint64 `json:"version"`
				DescriptorVersion uint64 `json:"descriptor_version"`
				Epoch             uint64 `json:"epoch"`
				ContentType       string `json:"content_type"`
			}
			if err := json.Unmarshal(ev.Payload, &w); err != nil {
				t.Fatalf("journaled payload %q does not decode: %v", ev.Payload, err)
			}
			if w.Path != path || w.Version != ev.Doc.Version || w.DescriptorVersion != ev.Doc.DescriptorVersion ||
				w.Epoch != ev.Doc.Epoch || w.ContentType != ev.Doc.ContentType {
				t.Fatalf("journaled %s %+v, its payload decodes to %+v", path, ev.Doc, w)
			}
		}
	}
}

// FuzzWALTailDecode ships arbitrary bytes to a follower as its leader's
// all-paths SSE stream: the follower must never panic, must reconnect once
// the stream ends, and must hold and serve only what decoded from it (so
// nothing corrupt can masquerade as a committed version). It keeps the name
// of the /.wal tail the stream replaced, so the target and its seed runs
// keep the names earlier test results list them under.
func FuzzWALTailDecode(f *testing.F) {
	for _, seed := range streamSeeds() {
		f.Add(seed.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkApplied(t, data, followTail(t, data))
	})
}

// TestFrameReaderSeeds ships each seed tail to a follower and asserts,
// beyond the fuzz property, the exact state it leaves: the versions a
// well-formed tail commits, retires and resets to, and for a cut or
// undecodable tail exactly the events before the damage.
func TestFrameReaderSeeds(t *testing.T) {
	for i, seed := range streamSeeds() {
		st := followTail(t, seed.data)
		checkApplied(t, seed.data, st)
		if seed.want == nil {
			continue
		}
		got := map[string]uint64{}
		for _, path := range st.Paths() {
			got[path] = st.Version(path)
		}
		if len(got) != len(seed.want) {
			t.Fatalf("seed %d: follower holds %v, want %v", i, got, seed.want)
		}
		for path, v := range seed.want {
			if got[path] != v {
				t.Fatalf("seed %d: follower holds %v, want %v", i, got, seed.want)
			}
		}
	}
}
