//go:build !unix || aix

package h1

import "net"

// peeker has no liveness check here: an idle connection is reused as is.
type peeker struct{}

func (*peeker) init(net.Conn) {}
func (*peeker) alive() bool   { return true }
