package giop

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"livedev/internal/cdr"
)

func TestMessageFraming(t *testing.T) {
	var buf bytes.Buffer
	msg := Message{Type: MsgRequest, Order: cdr.BigEndian, Body: []byte{1, 2, 3, 4, 5}}
	if err := WriteMessage(&buf, msg); err != nil {
		t.Fatal(err)
	}
	// Header: GIOP 1.0, flags, type, size.
	raw := buf.Bytes()
	if string(raw[:4]) != "GIOP" {
		t.Errorf("magic = %q", raw[:4])
	}
	if raw[4] != 1 || raw[5] != 0 {
		t.Errorf("version = %d.%d", raw[4], raw[5])
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != MsgRequest || got.Order != cdr.BigEndian || !bytes.Equal(got.Body, msg.Body) {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestMessageFramingLittleEndian(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, Message{Type: MsgReply, Order: cdr.LittleEndian, Body: make([]byte, 300)}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Order != cdr.LittleEndian || len(got.Body) != 300 {
		t.Errorf("LE round trip: order=%v len=%d", got.Order, len(got.Body))
	}
}

func TestReadMessageErrors(t *testing.T) {
	if _, err := ReadMessage(strings.NewReader("")); !errors.Is(err, io.EOF) {
		t.Errorf("empty: %v", err)
	}
	if _, err := ReadMessage(strings.NewReader("NOPE")); err == nil || errors.Is(err, ErrBadMagic) {
		// 4 bytes is a short header; must be a read error, not bad magic yet.
		t.Errorf("short: %v", err)
	}
	bad := append([]byte("JUNK"), make([]byte, 8)...)
	if _, err := ReadMessage(bytes.NewReader(bad)); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
	v2 := []byte{'G', 'I', 'O', 'P', 2, 0, 0, 0, 0, 0, 0, 0}
	if _, err := ReadMessage(bytes.NewReader(v2)); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v", err)
	}
	badFlag := []byte{'G', 'I', 'O', 'P', 1, 0, 9, 0, 0, 0, 0, 0}
	if _, err := ReadMessage(bytes.NewReader(badFlag)); err == nil {
		t.Error("bad byte-order flag should fail")
	}
	// Hostile size field.
	huge := []byte{'G', 'I', 'O', 'P', 1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadMessage(bytes.NewReader(huge)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("huge size: %v", err)
	}
	// Truncated body.
	short := []byte{'G', 'I', 'O', 'P', 1, 0, 0, 0, 0, 0, 0, 10, 1, 2}
	if _, err := ReadMessage(bytes.NewReader(short)); err == nil {
		t.Error("truncated body should fail")
	}
}

func TestWriteMessageTooLarge(t *testing.T) {
	err := WriteMessage(io.Discard, Message{Body: make([]byte, MaxMessageSize+1)})
	if !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize write: %v", err)
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		h := RequestHeader{
			RequestID:        42,
			ResponseExpected: true,
			ObjectKey:        []byte("calc-service"),
			Operation:        "add",
			Principal:        []byte("dev"),
		}
		msg, err := EncodeRequest(order, h, func(e *cdr.Encoder) error {
			e.WriteLong(7)
			e.WriteLong(35)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		gh, args, err := DecodeRequest(msg)
		if err != nil {
			t.Fatal(err)
		}
		if gh.RequestID != 42 || !gh.ResponseExpected || string(gh.ObjectKey) != "calc-service" ||
			gh.Operation != "add" || string(gh.Principal) != "dev" {
			t.Errorf("header mismatch (%v): %+v", order, gh)
		}
		a, _ := args.ReadLong()
		b, _ := args.ReadLong()
		if a != 7 || b != 35 {
			t.Errorf("args = %d, %d", a, b)
		}
	}
}

func TestRequestEncoderErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	_, err := EncodeRequest(cdr.BigEndian, RequestHeader{}, func(*cdr.Encoder) error { return boom })
	if !errors.Is(err, boom) {
		t.Errorf("EncodeRequest: %v", err)
	}
	_, err = EncodeReply(cdr.BigEndian, ReplyHeader{}, func(*cdr.Encoder) error { return boom })
	if !errors.Is(err, boom) {
		t.Errorf("EncodeReply: %v", err)
	}
}

func TestDecodeRequestWrongType(t *testing.T) {
	if _, _, err := DecodeRequest(Message{Type: MsgReply}); err == nil {
		t.Error("DecodeRequest on Reply should fail")
	}
	if _, _, err := DecodeReply(Message{Type: MsgRequest}); err == nil {
		t.Error("DecodeReply on Request should fail")
	}
}

func TestDecodeRequestSkipsServiceContexts(t *testing.T) {
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteULong(2) // two service contexts
	e.WriteULong(0xBEEF)
	e.WriteOctetSeq([]byte{1, 2, 3})
	e.WriteULong(0xCAFE)
	e.WriteOctetSeq(nil)
	e.WriteULong(7)            // request id
	e.WriteBool(false)         // response expected
	e.WriteOctetSeq([]byte{9}) // object key
	e.WriteString("op")
	e.WriteOctetSeq(nil) // principal
	h, _, err := DecodeRequest(Message{Type: MsgRequest, Order: cdr.BigEndian, Body: e.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	if h.RequestID != 7 || h.ResponseExpected || h.Operation != "op" {
		t.Errorf("header = %+v", h)
	}
}

// TestDecodeRequestHugeOperationLength: an operation name whose length is
// 2^31 or more is refused as truncated on every platform. On a 32-bit one
// the length used to go negative, pass the bounds check and panic, and the
// IIOP server, which does not recover, died on the one request.
func TestDecodeRequestHugeOperationLength(t *testing.T) {
	for _, n := range []uint32{1 << 31, 0xFFFFFFF0} {
		e := cdr.NewEncoder(cdr.BigEndian)
		e.WriteULong(0)            // no service contexts
		e.WriteULong(7)            // request id
		e.WriteBool(true)          // response expected
		e.WriteOctetSeq([]byte{9}) // object key
		e.WriteULong(n)            // the operation name's length
		e.WriteOctets([]byte("op\x00"))
		_, _, err := DecodeRequest(Message{Type: MsgRequest, Order: cdr.BigEndian, Body: e.Bytes()})
		if !errors.Is(err, cdr.ErrTruncated) {
			t.Errorf("operation length %#x: %v, want ErrTruncated", n, err)
		}
	}
}

func TestReplyRoundTrip(t *testing.T) {
	msg, err := EncodeReply(cdr.LittleEndian, ReplyHeader{RequestID: 9, Status: ReplyNoException},
		func(e *cdr.Encoder) error {
			e.WriteString("result")
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	h, body, err := DecodeReply(msg)
	if err != nil {
		t.Fatal(err)
	}
	if h.RequestID != 9 || h.Status != ReplyNoException {
		t.Errorf("reply header = %+v", h)
	}
	if s, _ := body.ReadString(); s != "result" {
		t.Errorf("reply body = %q", s)
	}
}

func TestSystemExceptionRoundTrip(t *testing.T) {
	se := &SystemException{RepoID: RepoBadOperation, Minor: 2, Completed: CompletedNo}
	msg, err := EncodeReply(cdr.BigEndian, ReplyHeader{RequestID: 1, Status: ReplySystemException}, se.Encode)
	if err != nil {
		t.Fatal(err)
	}
	h, body, err := DecodeReply(msg)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != ReplySystemException {
		t.Fatalf("status = %v", h.Status)
	}
	got, err := DecodeSystemException(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.RepoID != se.RepoID || got.Minor != se.Minor || got.Completed != se.Completed {
		t.Errorf("exception = %+v", got)
	}
	if got.Error() == "" {
		t.Error("Error() should be non-empty")
	}
}

func TestStringers(t *testing.T) {
	if MsgRequest.String() != "Request" || MsgReply.String() != "Reply" ||
		MsgCancelRequest.String() != "CancelRequest" || MsgLocateRequest.String() != "LocateRequest" ||
		MsgLocateReply.String() != "LocateReply" || MsgCloseConnection.String() != "CloseConnection" ||
		MsgMessageError.String() != "MessageError" {
		t.Error("MsgType.String")
	}
	if MsgType(200).String() == "" {
		t.Error("unknown MsgType.String")
	}
	if ReplyNoException.String() != "NO_EXCEPTION" || ReplyUserException.String() != "USER_EXCEPTION" ||
		ReplySystemException.String() != "SYSTEM_EXCEPTION" || ReplyLocationForward.String() != "LOCATION_FORWARD" {
		t.Error("ReplyStatus.String")
	}
	if ReplyStatus(77).String() == "" {
		t.Error("unknown ReplyStatus.String")
	}
}

// Property: request headers round-trip for arbitrary field contents.
func TestRequestHeaderRoundTripProperty(t *testing.T) {
	f := func(id uint32, resp bool, key []byte, op string, le bool) bool {
		if strings.ContainsRune(op, 0) {
			op = strings.ReplaceAll(op, "\x00", "_")
		}
		order := cdr.BigEndian
		if le {
			order = cdr.LittleEndian
		}
		msg, err := EncodeRequest(order, RequestHeader{
			RequestID: id, ResponseExpected: resp, ObjectKey: key, Operation: op,
		}, nil)
		if err != nil {
			return false
		}
		h, _, err := DecodeRequest(msg)
		if err != nil {
			return false
		}
		return h.RequestID == id && h.ResponseExpected == resp &&
			bytes.Equal(h.ObjectKey, key) && h.Operation == op
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
