//go:build !unix || aix

package h1

import (
	"bufio"
	"errors"
	"net"
	"os"
	"time"
)

// peeker has no liveness check here: an idle connection is reused as is.
type peeker struct{}

func (*peeker) init(net.Conn) {}
func (*peeker) alive() bool   { return true }

// watcher tells a server whether a request's peer has gone, as net/http
// does everywhere: a background Peek, started once the request body is
// read and nothing is buffered, fails when the peer closes. unwatch ends
// it before the connection reads on, and reports whether the connection
// may go on; a byte the Peek read stays in the reader.
type watcher struct {
	nc   net.Conn
	done chan struct{}
	err  error
}

func (w *watcher) init(nc net.Conn) { w.nc = nc }

func (w *watcher) watch(br *bufio.Reader) {
	if w.done == nil && br.Buffered() == 0 {
		w.done = make(chan struct{})
		go func() { _, w.err = br.Peek(1); close(w.done) }()
	}
}

func (w *watcher) peerGone(*bufio.Reader) bool {
	select {
	case <-w.done: // never ready while nil
		return w.err != nil
	default:
		return false
	}
}

func (w *watcher) unwatch() bool {
	if w.done == nil {
		return true
	}
	_ = w.nc.SetReadDeadline(time.Unix(1, 0))
	<-w.done
	_ = w.nc.SetReadDeadline(time.Time{})
	w.done = nil
	return w.err == nil || errors.Is(w.err, os.ErrDeadlineExceeded)
}
