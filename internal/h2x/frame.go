package h2x

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// clientPreface is the HTTP/2 connection preface (RFC 9113 §3.4).
const clientPreface = "PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n"

// Frame types (RFC 9113 §6).
const (
	frameData         = 0x0
	frameHeaders      = 0x1
	framePriority     = 0x2
	frameRSTStream    = 0x3
	frameSettings     = 0x4
	framePushPromise  = 0x5
	framePing         = 0x6
	frameGoAway       = 0x7
	frameWindowUpdate = 0x8
	frameContinuation = 0x9
)

// Frame flags.
const (
	flagEndStream  = 0x1 // DATA, HEADERS
	flagAck        = 0x1 // SETTINGS, PING
	flagEndHeaders = 0x4 // HEADERS, CONTINUATION
	flagPadded     = 0x8 // DATA, HEADERS
	flagPriority   = 0x20
)

// Settings identifiers (RFC 9113 §6.5.2).
const (
	settingHeaderTableSize      = 0x1
	settingEnablePush           = 0x2
	settingMaxConcurrentStreams = 0x3
	settingInitialWindowSize    = 0x4
	settingMaxFrameSize         = 0x5
	settingMaxHeaderListSize    = 0x6
)

// Error codes (RFC 9113 §7).
const (
	errCodeNo              = 0x0
	errCodeProtocol        = 0x1
	errCodeFlowControl     = 0x3
	errCodeCancel          = 0x8
	errCodeEnhanceYourCalm = 0xb
)

// Protocol limits. minMaxFrameSize is the size every peer must accept,
// and the assumed cap for sent frames until the peer's SETTINGS says
// more. maxFrameSize caps what this engine will read.
const (
	minMaxFrameSize     = 1 << 14
	maxFrameSize        = 1 << 18
	initialWindow       = 65535   // RFC-defined starting window
	connWindow          = 1 << 30 // advertised connection receive window
	streamWindow        = 1 << 20 // advertised per-stream receive window
	maxConcurrentStream = 1024
)

// frameHeader is one frame's 9-octet header.
type frameHeader struct {
	length   uint32
	typ      uint8
	flags    uint8
	streamID uint32
}

// readFrameHeader reads one frame header from r into hdr.
func readFrameHeader(r io.Reader, buf *[9]byte) (frameHeader, error) {
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return frameHeader{}, err
	}
	return frameHeader{
		length:   uint32(buf[0])<<16 | uint32(buf[1])<<8 | uint32(buf[2]),
		typ:      buf[3],
		flags:    buf[4],
		streamID: binary.BigEndian.Uint32(buf[5:]) & 0x7fffffff,
	}, nil
}

// appendFrameHeader appends a frame header to b.
func appendFrameHeader(b []byte, length int, typ, flags uint8, streamID uint32) []byte {
	return append(b,
		byte(length>>16), byte(length>>8), byte(length),
		typ, flags,
		byte(streamID>>24), byte(streamID>>16), byte(streamID>>8), byte(streamID))
}

// appendSettings appends a SETTINGS frame with the given id/value pairs.
func appendSettings(b []byte, pairs ...[2]uint32) []byte {
	b = appendFrameHeader(b, len(pairs)*6, frameSettings, 0, 0)
	for _, p := range pairs {
		b = append(b, byte(p[0]>>8), byte(p[0]), byte(p[1]>>24), byte(p[1]>>16), byte(p[1]>>8), byte(p[1]))
	}
	return b
}

// appendSettingsAck appends a SETTINGS acknowledgement.
func appendSettingsAck(b []byte) []byte {
	return appendFrameHeader(b, 0, frameSettings, flagAck, 0)
}

// appendWindowUpdate appends a WINDOW_UPDATE for the stream (0 = conn).
func appendWindowUpdate(b []byte, streamID uint32, delta uint32) []byte {
	b = appendFrameHeader(b, 4, frameWindowUpdate, 0, streamID)
	return append(b, byte(delta>>24), byte(delta>>16), byte(delta>>8), byte(delta))
}

// appendRSTStream appends a RST_STREAM frame.
func appendRSTStream(b []byte, streamID, code uint32) []byte {
	b = appendFrameHeader(b, 4, frameRSTStream, 0, streamID)
	return append(b, byte(code>>24), byte(code>>16), byte(code>>8), byte(code))
}

// appendGoAway appends a GOAWAY frame.
func appendGoAway(b []byte, lastStream, code uint32) []byte {
	b = appendFrameHeader(b, 8, frameGoAway, 0, 0)
	b = append(b, byte(lastStream>>24), byte(lastStream>>16), byte(lastStream>>8), byte(lastStream))
	return append(b, byte(code>>24), byte(code>>16), byte(code>>8), byte(code))
}

// appendPingAck appends a PING acknowledgement echoing payload.
func appendPingAck(b []byte, payload []byte) []byte {
	b = appendFrameHeader(b, 8, framePing, flagAck, 0)
	return append(b, payload...)
}

// stripPadding removes the pad-length prefix and trailing padding from a
// PADDED DATA or HEADERS payload.
func stripPadding(payload []byte) ([]byte, error) {
	if len(payload) < 1 {
		return nil, errors.New("h2x: padded frame too short")
	}
	pad := int(payload[0])
	body := payload[1:]
	if pad > len(body) {
		return nil, errors.New("h2x: padding exceeds frame payload")
	}
	return body[:len(body)-pad], nil
}

// connError is a connection-fatal protocol error.
type connError struct {
	code uint32
	msg  string
}

func (e *connError) Error() string { return fmt.Sprintf("h2x: connection error %d: %s", e.code, e.msg) }
