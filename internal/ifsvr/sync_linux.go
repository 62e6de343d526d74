//go:build linux

package ifsvr

import (
	"os"
	"syscall"
)

// walSync makes the appended WAL durable with fdatasync(2): the data
// and the file size reach disk, but the mtime-only metadata update skips
// the journal commit fsync(2) would force. On the group-commit hot path
// that is a measurable fraction of every flush.
func walSync(f *os.File) error {
	if err := syscall.Fdatasync(int(f.Fd())); err != nil {
		return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: err}
	}
	return nil
}
