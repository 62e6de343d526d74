package ifsvr

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The oracles below are the parent commit's encoders, kept verbatim in
// spirit: the snapshot as json.Marshal of a snapshotWire built field by
// field, the WAL record as a body copied into a frame. The writers that
// replaced them must produce the same bytes.

// oracleDocWire is the parent's docWire.
func oracleDocWire(path string, d Document) streamWire {
	return streamWire{
		Path:              path,
		Version:           d.Version,
		DescriptorVersion: d.DescriptorVersion,
		Epoch:             d.Epoch,
		ContentType:       d.ContentType,
		Content:           d.Content,
	}
}

// oracleSnapshot renders state as the parent did: json.Marshal of its
// snapshotWire. Documents go in path order — the order writeSnapshotImage
// uses; the parent's was map order, so any fixed order is one it could
// have written.
func oracleSnapshot(t testing.TB, state PersistentState, lsn uint64) []byte {
	t.Helper()
	wire := snapshotWire{
		Schema:     SnapshotSchema,
		Generation: state.Generation,
		Epoch:      state.Epoch,
		FloorEpoch: state.FloorEpoch,
		Lsn:        lsn,
	}
	paths := make([]string, 0, len(state.Docs))
	for path := range state.Docs {
		paths = append(paths, path)
	}
	slices.Sort(paths)
	for _, path := range paths {
		wire.Docs = append(wire.Docs, oracleDocWire(path, state.Docs[path]))
	}
	if len(state.Retired) > 0 {
		wire.Retired = state.Retired
	}
	for _, ev := range state.Journal {
		wire.Journal = append(wire.Journal, oracleDocWire(ev.Path, ev.Doc))
	}
	data, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// oracleAppendWALRecord is the parent's appendWALRecord: the body built in
// its own buffer, then copied behind the header.
func oracleAppendWALRecord(buf []byte, kind byte, payload []byte) []byte {
	var hdr [walHeaderLen]byte
	body := make([]byte, 0, 1+len(payload))
	body = append(body, kind)
	body = append(body, payload...)
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(body))
	buf = append(buf, hdr[:]...)
	return append(buf, body...)
}

// oracleCommitRecord is the parent's two-copy encodeCommitRecord (today EncodeCommitFrame).
func oracleCommitRecord(lsn uint64, evs []StoreEvent) []byte {
	body := []byte(`{"lsn":`)
	body = strconv.AppendUint(body, lsn, 10)
	body = append(body, `,"events":[`...)
	for i, ev := range evs {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, ev.Payload...)
	}
	body = append(body, "]}"...)
	return oracleAppendWALRecord(nil, walKindCommit, body)
}

// awkward are strings encoding/json escapes: HTML characters, quotes and
// backslashes, control bytes, the two JS line separators, invalid UTF-8.
var awkward = []string{
	"", "plain", "<a href=\"x\">&amp;</a>", `back\slash "quoted"`,
	"tab\there\nnewline\r\b\f" + string([]byte{0x01, 0x1f, 0x7f}),
	"sep" + string(rune(0x2028)) + "para" + string(rune(0x2029)) + "end",
	"bad" + string([]byte{0xff, 0xfe}) + "utf8" + string([]byte{0xe2, 0x80}),
	"emoji " + string(rune(0x1F600)) + " and " + string(rune(0x65E5)),
}

// randomState draws a PersistentState: paths (shared between docs,
// retired floors and the journal so they collide), absent and empty maps
// and journal, contents needing escaping, and journal entries with and
// without their Payload. Journal entries at a document's own (epoch,
// version) are that document — the invariant a commit keeps.
func randomState(r *rand.Rand, frag string) PersistentState {
	pick := func() string {
		switch r.IntN(4) {
		case 0:
			return frag
		case 1:
			return awkward[r.IntN(len(awkward))]
		case 2:
			return strings.Repeat(frag, r.IntN(4)) + awkward[r.IntN(len(awkward))]
		}
		return fmt.Sprintf("<v%d/>", r.IntN(1000))
	}
	var paths []string
	for n := r.IntN(12); len(paths) < n; {
		paths = append(paths, "/"+pick()+strconv.Itoa(len(paths)))
	}
	state := PersistentState{
		Generation: r.Uint64() >> r.IntN(64),
		Epoch:      r.Uint64() >> r.IntN(64),
		FloorEpoch: r.Uint64() >> r.IntN(64),
	}
	newDoc := func(version, epoch uint64) Document {
		d := Document{Content: pick(), Version: version, DescriptorVersion: r.Uint64() >> r.IntN(64), Epoch: epoch}
		if r.IntN(3) > 0 {
			d.ContentType = pick()
		}
		return d
	}
	// An entry without Payload must have Content: one with neither is an
	// error (TestSnapshotRefusesEntryWithoutBytes).
	withPayload := func(path string, d Document) StoreEvent {
		ev := StoreEvent{Path: path, Doc: d}
		if d.Content == "" || r.IntN(3) > 0 {
			ev.Payload = encodeEventPayload(path, d)
		}
		return ev
	}
	if r.IntN(4) > 0 {
		state.Docs = make(map[string]Document)
	}
	if r.IntN(4) > 0 {
		state.Retired = make(map[string]uint64)
	}
	for _, path := range paths {
		switch r.IntN(4) {
		case 0, 1:
			if state.Docs == nil {
				continue
			}
			d := newDoc(2+uint64(r.IntN(100)), 1+uint64(r.IntN(1000)))
			state.Docs[path] = d
			// Older versions of the path, then (maybe) the document's own
			// commit, somewhere in the journal.
			for n := r.IntN(3); n > 0; n-- {
				state.Journal = append(state.Journal, withPayload(path, newDoc(1+uint64(r.IntN(int(d.Version-1))), d.Epoch-uint64(r.IntN(2)))))
			}
			if r.IntN(3) > 0 {
				state.Journal = append(state.Journal, withPayload(path, d))
			}
		case 2:
			if state.Retired != nil {
				state.Retired[path] = r.Uint64() >> r.IntN(64)
			}
		case 3:
			state.Journal = append(state.Journal, withPayload(path, newDoc(1+uint64(r.IntN(9)), uint64(r.IntN(9)))))
		}
	}
	r.Shuffle(len(state.Journal), func(i, j int) { state.Journal[i], state.Journal[j] = state.Journal[j], state.Journal[i] })
	return state
}

// imageBytes renders state through the new writer, over a bufio.Writer of
// bufSize bytes (small sizes force the flushes and direct writes a 64 KiB
// buffer only sees with large documents).
func imageBytes(t testing.TB, state PersistentState, lsn uint64, bufSize int) []byte {
	t.Helper()
	img, err := gatherImage(state)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	w := bufio.NewWriterSize(&out, bufSize)
	writeSnapshotImage(w, snapshotWire{
		Schema:     SnapshotSchema,
		Generation: state.Generation,
		Epoch:      state.Epoch,
		FloorEpoch: state.FloorEpoch,
		Lsn:        lsn,
	}, &img)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestSnapshotWireFields pins snapshotWire's shape: writeSnapshotImage
// spells its fields by hand, so a field added here must be added there
// (and the oracle tests then compare it).
func TestSnapshotWireFields(t *testing.T) {
	var names []string
	rt := reflect.TypeOf(snapshotWire{})
	for i := 0; i < rt.NumField(); i++ {
		names = append(names, rt.Field(i).Tag.Get("json"))
	}
	want := []string{"schema", "generation", "epoch", "floor_epoch",
		"lsn", "docs", "retired,omitempty", "journal,omitempty"}
	if !slices.Equal(names, want) {
		t.Fatalf("snapshotWire fields = %q, want %q: update writeSnapshotImage and this list together", names, want)
	}
}

// TestSnapshotFilesMatchMarshal is the property test: for random states
// the snapshot file Snapshot writes is byte for byte json.Marshal of the
// parent's snapshotWire — and Load reads it back.
func TestSnapshotFilesMatchMarshal(t *testing.T) {
	iters := 200
	if testing.Short() {
		iters = 8
	}
	for seed := uint64(1); seed <= uint64(iters); seed++ {
		r := rand.New(rand.NewPCG(seed, 25))
		state := randomState(r, awkward[int(seed)%len(awkward)])
		dir := t.TempDir()
		p, err := openFilePersistence(StoreConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Snapshot(state); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, snapshotFile))
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleSnapshot(t, state, 0); !bytes.Equal(got, want) {
			t.Fatalf("seed %d:\n got %s\nwant %s", seed, got, want)
		}
		if _, err := p.Load(); err != nil {
			t.Fatalf("seed %d: loading the written snapshot: %v", seed, err)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzSnapshotWriter holds the streaming snapshot writer to the parent's
// json.Marshal encoder on fuzzer-drawn states, fragments and buffer sizes.
func FuzzSnapshotWriter(f *testing.F) {
	for i, s := range awkward {
		f.Add(uint64(i), s, uint16(64<<10-1))
	}
	f.Add(uint64(99), strings.Repeat("<&>", 40), uint16(16))
	f.Fuzz(func(t *testing.T, seed uint64, frag string, bufSize uint16) {
		r := rand.New(rand.NewPCG(seed, 25))
		state := randomState(r, frag)
		lsn := r.Uint64() >> r.IntN(64)
		got := imageBytes(t, state, lsn, 16+int(bufSize))
		if want := oracleSnapshot(t, state, lsn); !bytes.Equal(got, want) {
			t.Fatalf("\n got %s\nwant %s", got, want)
		}
	})
}

// oracleRemoveRecord is the parent's remove record: json.Marshal of
// walRemove, copied into a frame.
func oracleRemoveRecord(lsn uint64, path string, version uint64) []byte {
	body, _ := json.Marshal(walRemove{Lsn: lsn, Path: path, Version: version})
	return oracleAppendWALRecord(nil, walKindRemove, body)
}

// TestWALEncodersMatchOracle: the in-place framers produce the parent's
// bytes for random batches of 1–4 events with escape-heavy paths and
// contents, and lsns up to 2^64−1: alone, appended onto a non-empty buffer
// (FuzzWALDecode's rebuild path), and framed at send time into one reused
// buffer from events whose Content is cleared, as the replication ring
// keeps them.
func TestWALEncodersMatchOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(25, 25))
	var sendBuf []byte
	for iter := 0; iter < 200; iter++ {
		var evs, ring []StoreEvent
		for n := 1 + r.IntN(4); n > 0; n-- {
			path := "/" + strings.Repeat(awkward[r.IntN(len(awkward))], 1+r.IntN(3))
			d := Document{Content: strings.Repeat(awkward[r.IntN(len(awkward))], r.IntN(50)), ContentType: awkward[r.IntN(len(awkward))], Version: r.Uint64(), Epoch: r.Uint64()}
			ev := StoreEvent{Path: path, Doc: d, Payload: encodeEventPayload(path, d)}
			evs = append(evs, ev)
			ev.Doc.Content = ""
			ring = append(ring, ev)
		}
		lsn := [...]uint64{math.MaxUint64, r.Uint64(), r.Uint64() >> r.IntN(64)}[iter%3]
		want := oracleCommitRecord(lsn, evs)
		if got := EncodeCommitFrame(lsn, evs); !bytes.Equal(got, want) {
			t.Fatalf("iter %d: EncodeCommitFrame differs from the oracle:\n got %q\nwant %q", iter, got, want)
		}
		if sendBuf = AppendCommitFrame(sendBuf[:0], lsn, ring); !bytes.Equal(sendBuf, want) {
			t.Fatalf("iter %d: send-time commit frame differs from the oracle:\n got %q\nwant %q", iter, sendBuf, want)
		}
		path, version := evs[0].Path, r.Uint64()>>r.IntN(64)
		if sendBuf = AppendRemoveFrame(sendBuf[:0], lsn, path, version); !bytes.Equal(sendBuf, oracleRemoveRecord(lsn, path, version)) {
			t.Fatalf("iter %d: send-time remove frame differs from the oracle:\n got %q\nwant %q", iter, sendBuf, oracleRemoveRecord(lsn, path, version))
		}
		prefix := bytes.Repeat([]byte{byte(iter)}, r.IntN(40))
		if got := appendCommitRecord(bytes.Clone(prefix), lsn, evs); !bytes.Equal(got, append(bytes.Clone(prefix), want...)) {
			t.Fatalf("iter %d: appendCommitRecord onto %d bytes differs from the oracle", iter, len(prefix))
		}
		payload := []byte(awkward[r.IntN(len(awkward))])
		kind := byte(r.IntN(256))
		if got, want := appendWALRecord(bytes.Clone(prefix), kind, payload), oracleAppendWALRecord(bytes.Clone(prefix), kind, payload); !bytes.Equal(got, want) {
			t.Fatalf("iter %d: appendWALRecord differs from the oracle:\n got %q\nwant %q", iter, got, want)
		}
	}
}

// TestParentWrittenDirOpens: a data directory written by the parent's
// encoders — the snapshot file and WAL records — recovers under the new
// code, and the snapshot the new code then writes is the parent's bytes
// again (so the parent reads it as its own).
func TestParentWrittenDirOpens(t *testing.T) {
	dir := t.TempDir()
	doc := func(content string, version, epoch uint64) Document {
		return Document{Content: content, ContentType: "text/xml", Version: version, DescriptorVersion: version, Epoch: epoch}
	}
	ev := func(path string, d Document) StoreEvent {
		return StoreEvent{Path: path, Doc: d, Payload: encodeEventPayload(path, d)}
	}
	const a, b = "/wsdl/P0<&>.wsdl", "/wsdl/P1<&>.wsdl"
	snapState := PersistentState{
		Generation: 4,
		Epoch:      2,
		Docs:       map[string]Document{a: doc("<a1/>", 1, 1), b: doc("<b1/>", 1, 2)},
		Retired:    map[string]uint64{"/gone": 3},
		Journal:    []StoreEvent{ev(a, doc("<a1/>", 1, 1)), ev(b, doc("<b1/>", 1, 2))},
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), oracleSnapshot(t, snapState, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	// A commit of a, a retirement of b, a second commit of a.
	rm, _ := json.Marshal(walRemove{Lsn: 2, Path: b, Version: 1})
	wal := oracleCommitRecord(1, []StoreEvent{ev(a, doc("<a2/>", 2, 3))})
	wal = oracleAppendWALRecord(wal, walKindRemove, rm)
	wal = append(wal, oracleCommitRecord(3, []StoreEvent{ev(a, doc("<a3/>", 3, 4))})...)
	if err := os.WriteFile(filepath.Join(dir, walFile), wal, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := OpenStore(StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if d, err := st.Get(a); err != nil || d.Version != 3 || d.Content != "<a3/>" || d.Epoch != 4 {
		t.Fatalf("%s after recovery = %+v, %v; want version 3 <a3/> at epoch 4", a, d, err)
	}
	if _, err := st.Get(b); err == nil {
		t.Fatalf("%s survived its logged retirement", b)
	}
	if st.Generation() != 5 || st.Epoch() != 4 {
		t.Fatalf("generation %d epoch %d, want 5 and 4", st.Generation(), st.Epoch())
	}
	if evs, ok := st.ReplayEventsInto(a, 0, nil); !ok || len(evs) != 3 {
		t.Fatalf("journal replay of %s = %d events (ok=%v), want 3", a, len(evs), ok)
	}
	// Journal entries keep their wire bytes, not their text: the oracle's
	// journal objects come from each entry's Payload.
	state := st.CloneState()
	for i, ev := range state.Journal {
		var w streamWire
		if err := json.Unmarshal(ev.Payload, &w); err != nil {
			t.Fatalf("journal entry %d payload: %v", i, err)
		}
		state.Journal[i].Doc = wireDocument(w)
	}
	st.Close()
	got, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	var wire snapshotWire
	if err := json.Unmarshal(got, &wire); err != nil {
		t.Fatalf("snapshot does not parse: %v", err)
	}
	if want := oracleSnapshot(t, state, wire.Lsn); !bytes.Equal(got, want) {
		t.Fatalf("snapshot written at close:\n got %s\nwant %s", got, want)
	}
}

// TestJournalKeepsWireBytesOnly: a journal entry — committed, recovered on
// open, or applied from a leader without its payload — carries Payload and
// metadata but no Doc.Content, while subscribers still get the text.
func TestJournalKeepsWireBytesOnly(t *testing.T) {
	content := func(i int) string { return fmt.Sprintf("<a%d/>", i) }
	check := func(st *Store, when string) {
		t.Helper()
		evs, ok := st.ReplayEventsInto("/a", 0, nil)
		if !ok || len(evs) != 3 {
			t.Fatalf("%s: replay = %d events (ok=%v), want 3", when, len(evs), ok)
		}
		for i, ev := range evs {
			var w streamWire
			if err := json.Unmarshal(ev.Payload, &w); err != nil || ev.Doc.Content != "" || w.Content != content(i+1) {
				t.Errorf("%s: entry %d has content %q and payload %s (%v); want only the payload of %s", when, i, ev.Doc.Content, ev.Payload, err, content(i+1))
			}
		}
	}
	dir := t.TempDir()
	st := openDir(t, dir, 0)
	var seen []string
	cancel := st.Subscribe(func(op StoreOp) {
		for _, ev := range op.Events {
			seen = append(seen, ev.Doc.Content)
		}
	})
	for i := 1; i <= 3; i++ {
		st.Publish("/a", "text/xml", content(i))
	}
	cancel()
	if want := []string{content(1), content(2), content(3)}; !slices.Equal(seen, want) {
		t.Fatalf("subscriber saw %q, want %q", seen, want)
	}
	check(st, "committed")
	st.Close()
	st = openDir(t, dir, 0)
	defer st.Close()
	check(st, "recovered")

	replica := NewStore(0, nil)
	defer replica.Close()
	for i := 1; i <= 3; i++ {
		replica.ApplyReplicated([]StoreEvent{{Path: "/a", Doc: Document{Content: content(i), Version: uint64(i), Epoch: uint64(i)}}})
	}
	check(replica, "replicated")
}

// TestSnapshotRefusesEntryWithoutBytes: a journal entry with neither
// Payload nor Content cannot be written; Snapshot names it and leaves the
// previous snapshot in place instead of writing "content":"".
func TestSnapshotRefusesEntryWithoutBytes(t *testing.T) {
	dir := t.TempDir()
	p, err := openFilePersistence(StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	good := PersistentState{Generation: 1, Epoch: 1, Journal: []StoreEvent{{Path: "/a", Doc: Document{Content: "<a/>", Version: 1, Epoch: 1}}}}
	if err := p.Snapshot(good); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Journal = []StoreEvent{{Path: "/a", Doc: Document{Version: 1, Epoch: 7}}}
	err = p.Snapshot(bad)
	if err == nil || !strings.Contains(err.Error(), "/a") || !strings.Contains(err.Error(), "epoch 7") {
		t.Fatalf("Snapshot of an entry without bytes = %v, want an error naming /a and epoch 7", err)
	}
	if after, err := os.ReadFile(filepath.Join(dir, snapshotFile)); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("refused snapshot changed the file (%v):\n%s", err, after)
	}
}

// raceBuild reports whether the test binary was built with -race, whose
// memory and time cost a test allocating tens of megabytes skips.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestWALRefusesOversizeRecord: a record of exactly walMaxRecord bytes is
// logged and recovered; one byte more is refused before anything reaches
// the file, the refusal is not sticky, and a later record is recovered.
func TestWALRefusesOversizeRecord(t *testing.T) {
	if testing.Short() || raceBuild() {
		t.Skip("allocates several 64 MiB buffers")
	}
	dir := t.TempDir()
	cfg := StoreConfig{Dir: dir, SnapshotEvery: 1 << 20}
	p, err := openFilePersistence(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A valid event object padded with whitespace inside the record's
	// events array: the record is huge, its decode stays cheap.
	big := Document{Content: "<big/>", Version: 1, Epoch: 1}
	obj := encodeEventPayload("/big", big)
	need := walMaxRecord - len(appendCommitRecord(nil, 1, []StoreEvent{{Payload: obj}})) + walHeaderLen + len(obj)
	pad := make([]byte, need+1)
	copy(pad, obj)
	for i := len(obj); i < len(pad); i++ {
		pad[i] = ' '
	}
	if _, err := p.Append([]StoreEvent{{Path: "/big", Doc: big, Payload: pad[:need]}}); err != nil {
		t.Fatalf("record of exactly walMaxRecord bytes refused: %v", err)
	}
	walPath := filepath.Join(dir, walFile)
	before, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(walHeaderLen + walMaxRecord); before.Size() != want {
		t.Fatalf("WAL size %d, want %d (one walMaxRecord record)", before.Size(), want)
	}
	over := Document{Content: "<big/>", Version: 2, Epoch: 2}
	if _, err := p.Append([]StoreEvent{{Path: "/big", Doc: over, Payload: pad}}); err == nil {
		t.Fatal("record one byte over walMaxRecord accepted")
	}
	if after, err := os.Stat(walPath); err != nil || after.Size() != before.Size() {
		t.Fatalf("refused record changed the WAL: %d -> %d bytes (%v)", before.Size(), after.Size(), err)
	}
	small := Document{Content: "<small/>", Version: 1, Epoch: 3}
	if _, err := p.Append([]StoreEvent{{Path: "/small", Doc: small, Payload: encodeEventPayload("/small", small)}}); err != nil {
		t.Fatalf("append after a refused record: %v (the refusal must not be sticky)", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p, err = openFilePersistence(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	state, err := p.Load()
	if err != nil {
		t.Fatal(err)
	}
	if d := state.Docs["/big"]; d.Version != 1 || d.Content != "<big/>" {
		t.Errorf("recovered /big = %+v, want the walMaxRecord record's version 1", d)
	}
	if d := state.Docs["/small"]; d.Version != 1 || d.Content != "<small/>" {
		t.Errorf("recovered /small = %+v, want the record after the refusal", d)
	}
	if got := p.Stats().LastLSN; got != 2 {
		t.Errorf("recovered lsn = %d, want 2 (the refused record took none)", got)
	}
}

// TestOpenRemovesInterruptedSnapshotTemp: opening a store deletes the temp
// files of snapshot writes a crash interrupted, and nothing else.
func TestOpenRemovesInterruptedSnapshotTemp(t *testing.T) {
	dir := t.TempDir()
	st := openDir(t, dir, 0)
	for i := 1; i <= 3; i++ {
		st.Publish("/wsdl/T.wsdl", "text/xml", fmt.Sprintf("<v%d/>", i))
	}
	st.Close()
	temps := []string{"snapshot.json.tmp1234567", "snapshot-05.json.tmp89"}
	for _, name := range temps {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(`{"schema":"half a snap`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	keep := filepath.Join(dir, "notes.tmp")
	if err := os.WriteFile(keep, []byte("not ours"), 0o644); err != nil {
		t.Fatal(err)
	}

	st = openDir(t, dir, 0)
	defer st.Close()
	for _, name := range temps {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s still present after open (%v)", name, err)
		}
	}
	if _, err := os.Stat(keep); err != nil {
		t.Errorf("open removed a file that is not a snapshot temp: %v", err)
	}
	if d, err := st.Get("/wsdl/T.wsdl"); err != nil || d.Version != 3 || d.Content != "<v3/>" {
		t.Errorf("recovered doc = %+v, %v; want version 3 <v3/>", d, err)
	}
}

// TestAllocsWALAppend pins the commit path's WAL cost: a one-event Append
// under SyncNone allocates nothing, whatever the document size — the
// record is framed in place in the log's reused buffer, and the sync token
// is the record's lsn.
func TestAllocsWALAppend(t *testing.T) {
	for _, size := range []int{100, 100 << 10} {
		p, err := openFilePersistence(StoreConfig{Dir: t.TempDir(), SnapshotEvery: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		d := Document{Content: strings.Repeat("x", size), ContentType: "text/xml", Version: 1, Epoch: 1}
		evs := []StoreEvent{{Path: "/wsdl/A.wsdl", Doc: d, Payload: encodeEventPayload("/wsdl/A.wsdl", d)}}
		if _, err := p.Append(evs); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := p.Append(evs); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%d-byte document: Append allocates %.1f times, want 0", size, allocs)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAllocsEncodeCommitFrame: the replication ring's frame is one
// allocation, sized up front.
func TestAllocsEncodeCommitFrame(t *testing.T) {
	d := Document{Content: strings.Repeat("<op/>", 1000), ContentType: "text/xml", Version: 7, Epoch: 9}
	evs := []StoreEvent{
		{Path: "/wsdl/A.wsdl", Doc: d, Payload: encodeEventPayload("/wsdl/A.wsdl", d)},
		{Path: "/idl/B.idl", Doc: d, Payload: encodeEventPayload("/idl/B.idl", d)},
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = EncodeCommitFrame(1<<63, evs) }); allocs != 1 {
		t.Errorf("EncodeCommitFrame allocates %.1f times, want exactly 1", allocs)
	}
}

// TestCompactAllocsFlatInDocSize: a cadence snapshot of a 64-entry journal
// streams the commit-time bytes to the file, so what it allocates does not
// grow with the documents (the parent marshalled every entry again: two
// copies of the whole snapshot).
func TestCompactAllocsFlatInDocSize(t *testing.T) {
	measure := func(size int) uint64 {
		p, err := openFilePersistence(StoreConfig{Dir: t.TempDir(), SnapshotEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		state := PersistentState{Generation: 1, Docs: make(map[string]Document)}
		for v := uint64(1); v <= 8; v++ {
			for n := 0; n < 8; n++ {
				path := fmt.Sprintf("/wsdl/C%d.wsdl", n)
				state.Epoch++
				d := Document{Content: strings.Repeat("<&>", size/3), ContentType: "text/xml", Version: v, Epoch: state.Epoch}
				state.Docs[path] = d
				state.Journal = append(state.Journal, StoreEvent{Path: path, Doc: d, Payload: encodeEventPayload(path, d)})
			}
		}
		best := ^uint64(0)
		var before, after runtime.MemStats
		for run := 0; run < 5; run++ {
			if _, err := p.Append(state.Journal[len(state.Journal)-1:]); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&before)
			if err := p.Snapshot(state); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	small, large := measure(1<<10), measure(64<<10)
	t.Logf("Snapshot allocates %d bytes at 1 KB contents, %d at 64 KB", small, large)
	if large > small && large-small >= 64<<10 {
		t.Errorf("Snapshot allocates %d bytes more at 64 KB contents than at 1 KB: it copies the documents", large-small)
	}
}
