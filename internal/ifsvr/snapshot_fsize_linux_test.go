package ifsvr

import (
	"strings"
	"syscall"
	"testing"
)

// TestFailedSnapshotWriteKeepsPrevious: a snapshot whose temp file cannot
// be written in full (here: RLIMIT_FSIZE, so write(2) fails with EFBIG;
// the Go runtime ignores the SIGXFSZ that comes with it) must not be
// renamed into place. The previous snapshot and the WAL stay, and the
// next open recovers everything. The parent dropped the write error, so
// the truncated file replaced the good one and the next open failed.
func TestFailedSnapshotWriteKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st.Publish("/wsdl/Small.wsdl", "text/xml", "<small/>")
	big := strings.Repeat("<op/>", 400<<10) // 2 MB: its snapshot passes the limit
	st.Publish("/wsdl/Big.wsdl", "text/xml", big)

	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Skipf("getrlimit: %v", err)
	}
	lim := old
	lim.Cur = 1 << 20
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Skipf("setrlimit: %v", err)
	}
	st.Close() // the closing snapshot fails
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().PersistErrors; got == 0 {
		t.Error("a failed snapshot write was not counted in PersistErrors")
	}

	st, err = OpenStore(StoreConfig{Dir: dir})
	if err != nil {
		t.Fatalf("open after a failed snapshot write: %v", err)
	}
	defer st.Close()
	if d, err := st.Get("/wsdl/Big.wsdl"); err != nil || d.Content != big {
		t.Errorf("big doc after recovery: %d bytes, %v; want %d bytes from the WAL", len(d.Content), err, len(big))
	}
	if d, err := st.Get("/wsdl/Small.wsdl"); err != nil || d.Content != "<small/>" {
		t.Errorf("small doc after recovery = %+v, %v", d, err)
	}
}
