package ifsvr

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// buildTortureDir publishes batches 1..n into a durable store with the
// snapshot cadence pushed out, so everything past the open-time snapshot
// sits in the WAL, then crashes it (no parting snapshot). It returns the
// data dir and the WAL image. TestRecoveryIsCommitPrefix does the same
// with multi-path batches.
func buildTortureDir(t *testing.T, n int) (string, []byte) {
	t.Helper()
	dir := t.TempDir()
	st, err := OpenStore(StoreConfig{Dir: dir, SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		st.PublishVersioned("/wsdl/T.wsdl", "text/xml", fmt.Sprintf("<v%d/>", i), uint64(i))
	}
	if err := st.Crash(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(img) == 0 {
		t.Fatal("WAL unexpectedly empty")
	}
	return dir, img
}

// lastRecordStart locates the byte offset of the final WAL record.
func lastRecordStart(t *testing.T, img []byte) int {
	t.Helper()
	recs, valid := scanWAL(img)
	if valid != len(img) || len(recs) == 0 {
		t.Fatalf("torture WAL image not fully valid: %d records, %d/%d bytes", len(recs), valid, len(img))
	}
	offset := 0
	for i := 0; i < len(recs)-1; i++ {
		_, n, _ := decodeWALRecord(img[offset:])
		offset += n
	}
	return offset
}

// reopen recovers the store from dir and returns the recovered version of
// the torture path plus the epoch.
func reopenTorture(t *testing.T, dir string) (version, epoch uint64) {
	t.Helper()
	st, err := OpenStore(StoreConfig{Dir: dir})
	if err != nil {
		t.Fatalf("open after torture: %v", err)
	}
	defer st.Close()
	return st.Version("/wsdl/T.wsdl"), st.Epoch()
}

// TestWALTortureTruncate truncates the WAL at every byte offset inside the
// last record (including mid-header) and asserts recovery comes up clean
// with the longest valid prefix: every batch before the damaged one, and
// never an error.
func TestWALTortureTruncate(t *testing.T) {
	const batches = 6
	dir, img := buildTortureDir(t, batches)
	last := lastRecordStart(t, img)
	walPath := filepath.Join(dir, walFile)
	snapPath := filepath.Join(dir, snapshotFile)
	snap, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}

	for cut := last; cut < len(img); cut++ {
		if err := os.WriteFile(walPath, img[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(snapPath, snap, 0o644); err != nil {
			t.Fatal(err)
		}
		version, epoch := reopenTorture(t, dir)
		if version != batches-1 || epoch != batches-1 {
			t.Fatalf("truncate at %d: recovered version %d epoch %d, want %d/%d (longest valid prefix)",
				cut, version, epoch, batches-1, batches-1)
		}
	}
}

// TestWALTortureCorrupt flips every byte of the last record in place and
// asserts recovery still comes up clean: the CRC rejects the damaged
// record and the longest valid prefix wins — a flipped byte degrades to
// truncation, never to serving corrupt state.
func TestWALTortureCorrupt(t *testing.T) {
	const batches = 6
	dir, img := buildTortureDir(t, batches)
	last := lastRecordStart(t, img)
	walPath := filepath.Join(dir, walFile)
	snapPath := filepath.Join(dir, snapshotFile)
	snap, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}

	for off := last; off < len(img); off++ {
		mut := bytes.Clone(img)
		mut[off] ^= 0xFF
		if err := os.WriteFile(walPath, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(snapPath, snap, 0o644); err != nil {
			t.Fatal(err)
		}
		version, _ := reopenTorture(t, dir)
		if version != batches-1 {
			t.Fatalf("corrupt byte at %d: recovered version %d, want %d (longest valid prefix)",
				off, version, batches-1)
		}
	}
}

// TestWALRecoveryTruncatesTornTail: after recovering past a torn tail, the
// WAL file itself is truncated to the valid prefix, so the next incarnation
// appends valid records instead of extending garbage.
func TestWALRecoveryTruncatesTornTail(t *testing.T) {
	const batches = 4
	dir, img := buildTortureDir(t, batches)
	last := lastRecordStart(t, img)
	walPath := filepath.Join(dir, walFile)
	cut := last + (len(img)-last)/2
	if err := os.WriteFile(walPath, img[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := OpenStore(StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st.Publish("/wsdl/T.wsdl", "text/xml", "<after-recovery/>")
	st.Close()

	st2, err := OpenStore(StoreConfig{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after torn-tail recovery: %v", err)
	}
	defer st2.Close()
	d, err := st2.Get("/wsdl/T.wsdl")
	if err != nil || d.Content != "<after-recovery/>" || d.Version != batches {
		t.Fatalf("doc after torn-tail cycle = %+v, %v; want version %d content <after-recovery/>", d, err, batches)
	}
}

// TestWALRecoverySkipsSnapshottedRecords pins the snapshot/WAL crash
// window: a crash between the snapshot rename and the WAL reset leaves
// already-covered records in the log. Replaying them must be a no-op —
// in particular a lingering Remove record must NOT delete a document the
// snapshot legitimately contains (the lsn guard).
func TestWALRecoverySkipsSnapshottedRecords(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(StoreConfig{Dir: dir, SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	st.Publish("/p", "text/plain", "v1")
	st.Remove("/p")
	st.Publish("/p", "text/plain", "v2") // resumes the sequence: version 2
	walPath := filepath.Join(dir, walFile)
	img, err := os.ReadFile(walPath) // publish, remove, publish records
	if err != nil {
		t.Fatal(err)
	}
	st.Close() // snapshot written (docs contain /p@v2), WAL reset

	// The crash window: snapshot in place, WAL reset lost.
	if err := os.WriteFile(walPath, img, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	d, err := st2.Get("/p")
	if err != nil || d.Version != 2 || d.Content != "v2" {
		t.Fatalf("doc after crash-window recovery = %+v, %v; the lingering Remove record must not win over the snapshot", d, err)
	}
}

// FuzzWALDecode drives the WAL record decoder with arbitrary bytes: it
// must never panic, must never claim more bytes than it was given, and
// every record it accepts must re-encode to exactly the bytes it was
// decoded from (so recovery cannot silently rewrite history).
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("not a wal"))
	doc := Document{Content: "<v1/>", ContentType: "text/xml", Version: 1, DescriptorVersion: 1, Epoch: 1}
	rec := appendCommitRecord(nil, 1, []StoreEvent{{Path: "/p", Doc: doc, Payload: encodeEventPayload("/p", doc)}})
	f.Add(rec)
	f.Add(append(bytes.Clone(rec), appendRemoveRecord(nil, 2, "/p", 1)...))
	f.Add(rec[:len(rec)-3])
	// A two-event batch after a one-event one, a record of a kind recovery
	// does not know (skipped, like the header record the sharded layout
	// led each file with), and a header cut short.
	two := appendCommitRecord(nil, 2, []StoreEvent{{Path: "/p", Doc: doc, Payload: encodeEventPayload("/p", doc)}, {Path: "/q", Doc: doc, Payload: encodeEventPayload("/q", doc)}})
	f.Add(append(bytes.Clone(rec), two...))
	f.Add(append(appendWALRecord(nil, 'S', []byte(`{"shard":0,"shards":8}`)), rec...))
	f.Add(two[:walHeaderLen+2])

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid := scanWAL(data)
		if valid > len(data) {
			t.Fatalf("scanWAL claimed %d of %d bytes", valid, len(data))
		}
		// Round-trip: re-framing the decoded records must reproduce the
		// valid prefix byte for byte, through the in-place framer and the
		// parent's two-copy one alike.
		var rebuilt, oracle []byte
		for _, r := range recs {
			rebuilt = appendWALRecord(rebuilt, r.kind, r.payload)
			oracle = oracleAppendWALRecord(oracle, r.kind, r.payload)
		}
		if !bytes.Equal(rebuilt, data[:valid]) || !bytes.Equal(oracle, rebuilt) {
			t.Fatalf("decoded records re-encode to %d bytes (oracle %d) != valid prefix %d", len(rebuilt), len(oracle), valid)
		}
		// Semantic decode of accepted commit records must not panic either.
		for _, r := range recs {
			if r.kind == walKindCommit {
				_, _, _ = decodeCommitPayload(r.payload)
			}
		}
	})
}
