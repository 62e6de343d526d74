// Package repl replicates the Interface Server's publication store:
// leader→follower WAL shipping over HTTP and read-only follower replicas.
//
// The design adds no new invariants — only a new transport for existing
// ones. The leader taps its store's logged operations (Store.Subscribe)
// into an in-memory ring of records, framed like the WAL's records but
// numbered by the ring's own lsns, which restart at 0 with each leader
// process, and serves them over a streaming HTTP endpoint; a follower
// applies those records through the store's one write path into its own
// store, installing the leader's versions, epochs, and restart
// generation verbatim. A watcher on a follower therefore sees the exact
// bytes, at the exact epochs, it would see on the leader, and failing
// over between replicas is the watch protocol's ordinary
// reconnect-with-replay — not a restart.
//
// See docs/replication.md for the wire protocol.
package repl

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"livedev/internal/ifsvr"
)

const (
	// TailPath is the leader's WAL-tail endpoint. A request without an
	// "after" parameter answers the JSON handshake (Hello); "?after=N"
	// streams the records past lsn N.
	TailPath = "/.wal"

	// TailContentType marks a record stream (the handshake is plain JSON).
	TailContentType = "application/x-livedev-waltail"

	// GenerationHeader rides on every tail response. A follower compares
	// it to its adopted generation on each (re)connect — a leader swap
	// breaks the old stream, so the next connect's header reveals it — and
	// treats a mismatch as a new leader incarnation: re-handshake, reset
	// local state, re-bootstrap. (Mid-stream, the same check rides on
	// every bootstrap frame's generation field.)
	GenerationHeader = "X-Repl-Generation"

	// Schema identifies the protocol revision in the handshake.
	Schema = "livedev/repl-tail/v2"
)

// Record kinds on the tail stream. Commit and remove records are the WAL
// records byte-for-byte; bootstrap and heartbeat exist only on the wire.
const (
	// FrameCommit is a committed batch: {"lsn":N,"events":[...]}.
	FrameCommit = ifsvr.FrameCommit
	// FrameRemove is a retirement: {"lsn":N,"path":...,"version":...}.
	FrameRemove = ifsvr.FrameRemove
	// FrameBootstrap is a snapshot state transfer, sent when the
	// follower's cursor is no longer serveable:
	// {"lsn":L,"generation":G,"epoch":E,"events":[...],"retired":{...}}.
	// The events array is the store's current documents in epoch order;
	// lsn L is the log position the state covers — tailing resumes after
	// L.
	FrameBootstrap = 'B'
	// FrameHeartbeat is liveness padding on an idle stream: {"lsn":N}
	// with the stream's cursor, so a quiet follower still tracks leader
	// progress (and lag stays honest).
	FrameHeartbeat = 'H'
)

// Hello is the handshake body: GET TailPath with no after parameter.
type Hello struct {
	Schema     string `json:"schema"`
	Generation uint64 `json:"generation"`
	Epoch      uint64 `json:"epoch"`
	// LSN is the log's head (last assigned lsn).
	LSN uint64 `json:"lsn"`
	// Floor is the oldest still-serveable "after" cursor; a follower below
	// it is answered with a bootstrap.
	Floor uint64 `json:"floor"`
}

// bootstrapMeta is the part of a FrameBootstrap payload beyond what
// ifsvr.DecodeCommitFrame (lsn + events) already parses.
type bootstrapMeta struct {
	Generation uint64            `json:"generation"`
	Epoch      uint64            `json:"epoch"`
	Retired    map[string]uint64 `json:"retired,omitempty"`
}

// heartbeatWire is a FrameHeartbeat payload.
type heartbeatWire struct {
	Lsn uint64 `json:"lsn"`
}

// encodeHeartbeatFrame renders a liveness record at head lsn.
func encodeHeartbeatFrame(lsn uint64) []byte {
	body := make([]byte, 0, 24)
	body = append(body, `{"lsn":`...)
	body = strconv.AppendUint(body, lsn, 10)
	body = append(body, '}')
	return ifsvr.AppendFrame(nil, FrameHeartbeat, body)
}

// encodeBootstrapFrame packs a state transfer: state as of log position
// lsn, documents spliced via their shared wire payloads, retirement
// floors alongside.
func encodeBootstrapFrame(lsn, generation, epoch uint64, evs []ifsvr.StoreEvent, retired map[string]uint64) []byte {
	n := 96
	for _, ev := range evs {
		n += len(ev.Payload) + 1
	}
	body := make([]byte, 0, n)
	body = append(body, `{"lsn":`...)
	body = strconv.AppendUint(body, lsn, 10)
	body = append(body, `,"generation":`...)
	body = strconv.AppendUint(body, generation, 10)
	body = append(body, `,"epoch":`...)
	body = strconv.AppendUint(body, epoch, 10)
	if len(retired) > 0 {
		rj, err := json.Marshal(retired)
		if err != nil {
			panic("repl: marshaling retired map: " + err.Error())
		}
		body = append(body, `,"retired":`...)
		body = append(body, rj...)
	}
	body = append(body, `,"events":[`...)
	for i, ev := range evs {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, ev.Payload...)
	}
	body = append(body, "]}"...)
	return ifsvr.AppendFrame(nil, FrameBootstrap, body)
}

// errCorruptFrame reports a frame whose CRC (or framing) did not check
// out — the stream is poisoned past this point; the follower reconnects
// and re-fetches from its last applied lsn.
var errCorruptFrame = fmt.Errorf("repl: torn or corrupt tail frame")

// frameReader incrementally decodes CRC-framed records off a tail stream.
// A short read at a frame boundary is a clean EOF (io.EOF); inside a
// frame it is an io.ErrUnexpectedEOF; a CRC or framing violation is
// errCorruptFrame. Either way the reader is dead after the first error.
type frameReader struct {
	br *bufio.Reader
	// n counts bytes consumed by successfully decoded frames.
	n int64
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, 32<<10)}
}

// next returns the next record's kind and payload. The payload is only
// valid until the following call.
func (fr *frameReader) next() (kind byte, payload []byte, err error) {
	var hdr [8]byte
	if _, err := io.ReadFull(fr.br, hdr[:1]); err != nil {
		return 0, nil, err // EOF at a boundary is a clean end
	}
	if _, err := io.ReadFull(fr.br, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	length := uint32(hdr[0]) | uint32(hdr[1])<<8 | uint32(hdr[2])<<16 | uint32(hdr[3])<<24
	if length < 1 || length > ifsvr.MaxFrame {
		return 0, nil, errCorruptFrame
	}
	frame := make([]byte, 8+int(length))
	copy(frame, hdr[:])
	if _, err := io.ReadFull(fr.br, frame[8:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	kind, payload, n, ok := ifsvr.DecodeFrame(frame)
	if !ok {
		return 0, nil, errCorruptFrame
	}
	fr.n += int64(n)
	return kind, payload, nil
}
