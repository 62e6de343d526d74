package ifsvr

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"strconv"
)

// The write-ahead-log record format.
//
// The WAL is a sequence of length-prefixed, CRC-guarded records:
//
//	[4B little-endian payload length][4B little-endian CRC-32 (IEEE) of payload][payload]
//
// The first payload byte is the record kind; the rest is JSON. A commit
// record's "events" array holds the exact per-event wire objects the SSE
// transport sends as its "data:" lines (streamWire) — the store marshals
// each committed event once and splices the same bytes into the log AND
// every streaming watcher's connection, so the two encoders cannot drift
// apart and the fan-out cost is one marshal per commit instead of one per
// watcher.
//
// Every record carries the store's log sequence number (lsn, monotone per
// logged operation), so the lsn order of the one log is commit order. The
// snapshot records the last lsn it covers, and recovery skips records at
// or below it — which makes replay idempotent when a crash lands between
// the snapshot rename and the WAL reset and old records linger in the log.
//
// Recovery reads records until the first torn or corrupt one (short frame,
// absurd length, or CRC mismatch) and keeps the longest valid prefix: a
// crash mid-append loses at most the batch being written, never an earlier
// one, so what recovers is always a prefix of commit history. A record is
// only acted on after its CRC checks out, so a flipped byte anywhere in the
// tail degrades to clean truncation.

const (
	// walHeaderLen frames every record: payload length + CRC.
	walHeaderLen = 8
	// walMaxRecord bounds a single record (kind byte + body) so a corrupt
	// length prefix cannot drive a giant allocation during recovery
	// (documents are capped at 16 MiB on the fetch path; a batch of a few
	// of them fits comfortably). The writer refuses a longer record before
	// writing anything: recovery would read it as a torn tail.
	walMaxRecord = 64 << 20

	// walKindCommit is a committed publication batch:
	// {"lsn":N,"events":[streamWire...]}.
	walKindCommit = 'C'
	// walKindRemove is a retired path: {"lsn":..., "path":..., "version":...}.
	walKindRemove = 'R'
)

// walRecord is one decoded WAL record.
type walRecord struct {
	kind    byte
	payload []byte // JSON, without the kind byte
}

// walCommit is the JSON layout of a walKindCommit payload.
type walCommit struct {
	Lsn    uint64       `json:"lsn"`
	Events []streamWire `json:"events"`
}

// walRemove is the JSON payload of a walKindRemove record.
type walRemove struct {
	Lsn  uint64 `json:"lsn"`
	Path string `json:"path"`
	// Version is the retired path's last committed version — the floor a
	// republication resumes from.
	Version uint64 `json:"version"`
}

// appendWALRecord frames kind+payload onto buf and returns the extended
// slice.
func appendWALRecord(buf []byte, kind byte, payload []byte) []byte {
	buf, start := beginWALRecord(buf, kind, len(payload))
	buf = append(buf, payload...)
	return sealWALRecord(buf, start)
}

// beginWALRecord starts a record in place at the end of buf, growing it
// once for a body of up to n bytes after the kind byte: it reserves the
// header and appends the kind byte. The caller appends the body and
// passes start to sealWALRecord.
func beginWALRecord(buf []byte, kind byte, n int) (_ []byte, start int) {
	var hdr [walHeaderLen]byte
	if need := walHeaderLen + 1 + n; cap(buf)-len(buf) < need {
		// Not slices.Grow: under -race it allocates twice.
		grown := make([]byte, len(buf), max(2*cap(buf), len(buf)+need))
		copy(grown, buf)
		buf = grown
	}
	start = len(buf)
	buf = append(buf, hdr[:]...)
	return append(buf, kind), start
}

// sealWALRecord fills in the header of the record framed in place at
// buf[start:]: walHeaderLen reserved bytes, then the kind byte and body,
// which the length and CRC cover.
func sealWALRecord(buf []byte, start int) []byte {
	body := buf[start+walHeaderLen:]
	binary.LittleEndian.PutUint32(buf[start:start+4], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[start+4:start+8], crc32.ChecksumIEEE(body))
	return buf
}

// appendCommitRecord frames one committed batch as a WAL record onto buf,
// splicing the events' pre-marshaled wire payloads into the envelope
// without re-marshaling them. buf grows at most once.
func appendCommitRecord(buf []byte, lsn uint64, evs []StoreEvent) []byte {
	n := len(`{"lsn":`) + 20 + len(`,"events":[`) + len("]}")
	for _, ev := range evs {
		n += len(ev.Payload) + 1
	}
	buf, start := beginWALRecord(buf, walKindCommit, n)
	buf = append(buf, `{"lsn":`...)
	buf = strconv.AppendUint(buf, lsn, 10)
	buf = append(buf, `,"events":[`...)
	for i, ev := range evs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, ev.Payload...)
	}
	buf = append(buf, "]}"...)
	return sealWALRecord(buf, start)
}

// appendRemoveRecord frames one retirement as a WAL record onto buf: the
// bytes json.Marshal renders for walRemove, appended in place.
func appendRemoveRecord(buf []byte, lsn uint64, path string, version uint64) []byte {
	buf, start := beginWALRecord(buf, walKindRemove, len(`{"lsn":,"path":"","version":}`)+40+len(path))
	buf = append(buf, `{"lsn":`...)
	buf = strconv.AppendUint(buf, lsn, 10)
	buf = append(buf, `,"path":`...)
	buf = appendJSONString(buf, path)
	buf = append(buf, `,"version":`...)
	buf = strconv.AppendUint(buf, version, 10)
	buf = append(buf, '}')
	return sealWALRecord(buf, start)
}

// decodeWALRecord parses the record at the head of data. It returns the
// record and the number of bytes it occupied, or ok=false when the head is
// not a complete, CRC-valid record (the recovery stop condition).
func decodeWALRecord(data []byte) (rec walRecord, n int, ok bool) {
	if len(data) < walHeaderLen {
		return walRecord{}, 0, false
	}
	length := binary.LittleEndian.Uint32(data[0:4])
	if length < 1 || length > walMaxRecord || int(length) > len(data)-walHeaderLen {
		return walRecord{}, 0, false
	}
	body := data[walHeaderLen : walHeaderLen+int(length)]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[4:8]) {
		return walRecord{}, 0, false
	}
	return walRecord{kind: body[0], payload: body[1:]}, walHeaderLen + int(length), true
}

// scanWAL decodes the longest valid prefix of a WAL image, returning the
// records and the prefix length in bytes (what recovery truncates the file
// to).
func scanWAL(data []byte) (recs []walRecord, valid int) {
	for {
		rec, n, ok := decodeWALRecord(data[valid:])
		if !ok {
			return recs, valid
		}
		recs = append(recs, rec)
		valid += n
	}
}

// decodeCommitPayload parses a commit record back into its lsn and events
// (Document + re-usable wire payload per event).
func decodeCommitPayload(payload []byte) (uint64, []StoreEvent, error) {
	var rec walCommit
	if err := json.Unmarshal(payload, &rec); err != nil {
		return 0, nil, fmt.Errorf("ifsvr: decoding WAL commit record: %w", err)
	}
	evs := make([]StoreEvent, 0, len(rec.Events))
	for _, w := range rec.Events {
		doc := Document{
			Content:           w.Content,
			ContentType:       w.ContentType,
			Version:           w.Version,
			DescriptorVersion: w.DescriptorVersion,
			Epoch:             w.Epoch,
		}
		evs = append(evs, StoreEvent{Path: w.Path, Doc: doc, Payload: encodeEventPayload(w.Path, doc)})
	}
	return rec.Lsn, evs, nil
}

// encodeEventPayload marshals one committed version into the shared wire
// form: the JSON object that is both the SSE "data:" line and the WAL
// commit-record element. It is called once per event at commit time; the
// resulting bytes are fanned out to every watcher and appended to the log,
// so they must never be mutated afterwards.
func encodeEventPayload(path string, d Document) []byte {
	data, err := json.Marshal(streamWire{
		Path:              path,
		Version:           d.Version,
		DescriptorVersion: d.DescriptorVersion,
		Epoch:             d.Epoch,
		ContentType:       d.ContentType,
		Content:           d.Content,
	})
	if err != nil {
		// streamWire is strings and integers; Marshal cannot fail on it.
		panic("ifsvr: marshaling stream event: " + err.Error())
	}
	return data
}
