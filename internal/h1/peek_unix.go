//go:build unix && !aix

package h1

import (
	"bufio"
	"net"
	"syscall"
)

// peeker checks a connection with a non-blocking MSG_PEEK. An idle client
// connection its server closed reads EOF, and one carrying bytes nobody
// asked for is out of step: either is dropped rather than written to.
type peeker struct {
	rc  syscall.RawConn
	fn  func(fd uintptr) bool // p.peek, bound once so a check allocates nothing
	n   int
	err error
	b   [1]byte
}

func (p *peeker) init(nc net.Conn) {
	if tc, ok := nc.(*net.TCPConn); ok {
		p.rc, _ = tc.SyscallConn()
		p.fn = p.peek
	}
}

func (p *peeker) peek(fd uintptr) bool {
	p.n, _, p.err = syscall.Recvfrom(int(fd), p.b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
	return true
}

// alive reports whether the connection is open with nothing to read.
func (p *peeker) alive() bool {
	return p.rc.Read(p.fn) == nil && p.n < 0 && p.wouldBlock()
}

func (p *peeker) wouldBlock() bool {
	return p.err == syscall.EAGAIN || p.err == syscall.EWOULDBLOCK || p.err == syscall.EINTR
}

// watcher tells the server whether a request's peer has gone, here with a
// peek when asked: EOF or an error means the peer closed or reset the
// connection; bytes waiting, read or not, mean it is there.
type watcher = peeker

func (p *peeker) peerGone(br *bufio.Reader) bool {
	return br.Buffered() == 0 && p.rc != nil && (p.rc.Read(p.fn) != nil || p.n == 0 || p.n < 0 && !p.wouldBlock())
}

func (*peeker) watch(*bufio.Reader) {}
func (*peeker) unwatch() bool       { return true }
