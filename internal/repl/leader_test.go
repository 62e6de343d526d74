package repl

import (
	"bytes"
	"io"
	"testing"

	"livedev/internal/ifsvr"
)

// TestAllocsTailCollect: a held tail frames the ring's records at send
// time — the commit records EncodeCommitFrame renders from the commit-time
// events, and the remove record — into buffers it reuses, so a
// steady-state collect of pending records allocates nothing.
func TestAllocsTailCollect(t *testing.T) {
	st := ifsvr.NewStore(0, nil)
	defer st.Close()
	ts := NewTailServer(st, TailConfig{})
	defer ts.Close()
	var want []byte
	var lsn uint64
	cancel := st.Subscribe(func(op ifsvr.StoreOp) {
		lsn++
		if op.RemovePath != "" {
			want = ifsvr.AppendRemoveFrame(want, lsn, op.RemovePath, op.RemoveVersion)
		} else {
			want = append(want, ifsvr.EncodeCommitFrame(lsn, op.Events)...)
		}
	})
	st.Publish("/wsdl/A.wsdl", "text/xml", "<a1/>")
	st.Publish("/idl/B<&>.idl", "text/plain", "interface B {\n};")
	st.Publish("/wsdl/A.wsdl", "text/xml", `<a2 note="&"/>`)
	st.Remove("/idl/B<&>.idl")
	cancel()

	src := &tailSource{t: ts}
	var out bytes.Buffer
	src.Collect(&out)
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("collected frames differ from the commit-time framing:\n got %q\nwant %q", out.Bytes(), want)
	}
	if src.cursor != 4 {
		t.Fatalf("cursor after collect = %d, want 4", src.cursor)
	}
	allocs := testing.AllocsPerRun(100, func() {
		src.cursor = 0
		src.Collect(io.Discard)
	})
	if allocs != 0 {
		t.Errorf("a steady-state collect of 4 pending records allocates %.1f times, want 0", allocs)
	}
}
