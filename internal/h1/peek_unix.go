//go:build unix && !aix

package h1

import (
	"net"
	"syscall"
)

// peeker checks an idle connection with a non-blocking MSG_PEEK. One its
// server closed reads EOF, and one carrying bytes nobody asked for is out
// of step: either is dropped rather than written to.
type peeker struct {
	rc  syscall.RawConn
	fn  func(fd uintptr) bool // p.peek, bound once so a check allocates nothing
	n   int
	err error
	b   [1]byte
}

func (p *peeker) init(nc net.Conn) {
	p.rc, _ = nc.(*net.TCPConn).SyscallConn()
	p.fn = p.peek
}

func (p *peeker) peek(fd uintptr) bool {
	p.n, _, p.err = syscall.Recvfrom(int(fd), p.b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
	return true
}

// alive reports whether the connection is open with nothing to read.
func (p *peeker) alive() bool {
	return p.rc.Read(p.fn) == nil && p.n < 0 && (p.err == syscall.EAGAIN || p.err == syscall.EWOULDBLOCK)
}
