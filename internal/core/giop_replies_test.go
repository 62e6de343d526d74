package core_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"livedev/internal/cdr"
	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/giop"
	"livedev/internal/ior"
	"livedev/internal/orb"
	"livedev/internal/static"
)

// giopReplies is the committed transcript of TestGIOPRepliesMatchTranscript:
// for each row, its name, then the reply message in hex, 32 octets a line.
const giopReplies = "testdata/giop_replies.txt"

// giopRow is one raw IIOP exchange: a request to addr for key's operation,
// its arguments encoded by args (nil for none).
type giopRow struct {
	name  string
	addr  string
	key   []byte
	op    string
	order cdr.ByteOrder
	args  func(*cdr.Encoder) error
}

// int32Args encodes the given int32 arguments.
func int32Args(vs ...int32) func(*cdr.Encoder) error {
	return func(e *cdr.Encoder) error {
		for _, v := range vs {
			e.WriteLong(v)
		}
		return nil
	}
}

// exchangeGIOP sends one Request on a new connection and returns the raw
// octets of the one reply message.
func exchangeGIOP(t *testing.T, r giopRow, id uint32) []byte {
	t.Helper()
	nc, err := net.Dial("tcp", r.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	msg, err := giop.EncodeRequest(r.order, giop.RequestHeader{RequestID: id, ResponseExpected: true, ObjectKey: r.key, Operation: r.op}, r.args)
	if err != nil {
		t.Fatal(err)
	}
	err = giop.WriteMessage(nc, msg)
	msg.Recycle()
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if _, err := giop.ReadMessage(io.TeeReader(nc, &raw)); err != nil {
		t.Fatalf("%s: reading the reply: %v", r.name, err)
	}
	return raw.Bytes()
}

// maskedHex renders b in hex, 32 octets a line, with every octet of an
// occurrence of any of masks shown as "**".
func maskedHex(b []byte, masks ...[]byte) string {
	h := []byte(hex.EncodeToString(b))
	for _, m := range masks {
		for off := 0; ; {
			i := bytes.Index(b[off:], m)
			if i < 0 {
				break
			}
			copy(h[2*(off+i):], strings.Repeat("*", 2*len(m)))
			off += i + 1
		}
	}
	return wrap(h)
}

// wrap breaks s into lines of 64 characters.
func wrap(s []byte) string {
	var out strings.Builder
	for len(s) > 0 {
		n := min(len(s), 64)
		out.Write(s[:n])
		out.WriteByte('\n')
		s = s[n:]
	}
	return out.String()
}

// TestGIOPRepliesMatchTranscript sends raw GIOP requests over TCP to a live
// CORBA server and to Table 1's static control and compares each reply
// message, octet for octet, with the committed transcript in testdata,
// which -update rewrites. Live rows: results for a big- and a
// little-endian request, the application fault, a call before
// CreateInstance, a wrong object key, and the stale replies with minor 1
// (unknown operation), 3 (arguments that do not decode) and 4 (octets left
// over), each carrying the document; then the published IOR. Static rows:
// result, BAD_OPERATION and application error. Masked: the store's random
// generation in the carried document, and the IOR's port.
func TestGIOPRepliesMatchTranscript(t *testing.T) {
	m, err := core.NewManager(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var ran atomic.Int32
	liveSrv, err := m.Register(endpointClass(t, "OracleCORBA", &ran, nil, nil), core.TechCORBA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := liveSrv.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	idleSrv, err := m.Register(endpointClass(t, "OracleCORBAIdle", &ran, nil, nil), core.TechCORBA)
	if err != nil {
		t.Fatal(err)
	}
	profile := func(s core.Server) ior.IIOPProfile {
		p, err := s.(*core.CORBAServer).IOR().FirstIIOP()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	live, idle := profile(liveSrv), profile(idleSrv)

	twice := dyn.MethodSig{Name: "twice", Params: []dyn.Param{{Name: "a", Type: dyn.Int32T}}, Result: dyn.Int32T}
	ops := []static.Op{
		{Name: twice.Name, Params: twice.Params, Result: twice.Result,
			Fn: func(a []dyn.Value) (dyn.Value, error) { return dyn.Int32Value(2 * a[0].Int32()), nil }},
		{Name: "fail", Params: twice.Params, Result: twice.Result,
			Fn: func([]dyn.Value) (dyn.Value, error) { return dyn.Value{}, io.ErrUnexpectedEOF }},
	}
	ctl, err := static.NewCORBAServer("IDL:StaticModule/Static:1.0", []byte("Static"), ops)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ctl.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	control, err := ref.FirstIIOP()
	if err != nil {
		t.Fatal(err)
	}

	be, le := cdr.BigEndian, cdr.LittleEndian
	rows := []giopRow{
		{"live ok, big-endian", live.Addr(), live.ObjectKey, "twice", be, int32Args(21)},
		{"live ok, little-endian", live.Addr(), live.ObjectKey, "twice", le, int32Args(21)},
		{"live application fault", live.Addr(), live.ObjectKey, "fail", be, int32Args(21)},
		{"live not initialized", idle.Addr(), idle.ObjectKey, "twice", be, int32Args(21)},
		{"live wrong object key", live.Addr(), []byte("NoSuchObject"), "twice", be, int32Args(21)},
		{"live stale, minor 1 (unknown operation)", live.Addr(), live.ObjectKey, "renamedAway", be, int32Args(21)},
		{"live stale, minor 3 (arguments do not decode)", live.Addr(), live.ObjectKey, "twice", be, nil},
		{"live stale, minor 4 (octets left over)", live.Addr(), live.ObjectKey, "twice", be, int32Args(21, 22)},
		{"static ok", control.Addr(), control.ObjectKey, "twice", be, int32Args(21)},
		{"static BAD_OPERATION", control.Addr(), control.ObjectKey, "renamedAway", be, int32Args(21)},
		{"static application error", control.Addr(), control.ObjectKey, "fail", be, int32Args(21)},
	}
	gen := m.Store().Generation()
	genBE, genLE := binary.BigEndian.AppendUint64(nil, gen), binary.LittleEndian.AppendUint64(nil, gen)

	var transcript strings.Builder
	for i, r := range rows {
		raw := exchangeGIOP(t, r, uint32(i+1))
		transcript.WriteString("=== " + r.name + "\n" + maskedHex(raw, genBE, genLE))
	}

	// The published IOR, its port octets masked: the positions where the
	// same reference differs between ports 0 and 0xffff.
	doc, err := m.Store().Get("/ior/OracleCORBA.ior")
	if err != nil {
		t.Fatal(err)
	}
	published, err := ior.ParseString(doc.Content)
	if err != nil {
		t.Fatal(err)
	}
	p := published.Profiles[0]
	lo := ior.New(published.TypeID, p.Host, 0, p.ObjectKey).String()
	hi := []byte(ior.New(published.TypeID, p.Host, 0xffff, p.ObjectKey).String())
	text := []byte(doc.Content)
	if len(text) != len(lo) || len(hi) != len(lo) {
		t.Fatalf("published IOR %q is not the one ior.New encodes", doc.Content)
	}
	for i := range text {
		if lo[i] != hi[i] {
			text[i] = '*'
		}
	}
	transcript.WriteString("=== live published IOR\n" + wrap(text))

	checkTranscript(t, giopReplies, transcript.String())
}

// TestCORBABodySystemExceptionIsAppError: a method body's error reaches a
// CORBA client as the generic application exception (Section 5.2.3), even
// when the error is itself a CORBA system exception.
func TestCORBABodySystemExceptionIsAppError(t *testing.T) {
	m, err := core.NewManager(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	c := dyn.NewClass("SysExBody")
	if _, err := c.AddMethod(dyn.MethodSpec{Name: "op", Result: dyn.Int32T, Distributed: true,
		Body: func(*dyn.Instance, []dyn.Value) (dyn.Value, error) {
			return dyn.Value{}, &giop.SystemException{RepoID: giop.RepoMarshal, Minor: 9, Completed: giop.CompletedYes}
		}}); err != nil {
		t.Fatal(err)
	}
	srv, err := m.Register(c, core.TechCORBA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	h := giop.RequestHeader{RequestID: 7, ResponseExpected: true, ObjectKey: []byte("SysExBody"), Operation: "op"}
	msg := core.CORBAHandler(srv.(*core.CORBAServer))(context.Background(), h, cdr.NewDecoder(nil, cdr.BigEndian), cdr.BigEndian)
	defer msg.Recycle()
	hdr, body, err := giop.DecodeReply(msg)
	if err != nil {
		t.Fatal(err)
	}
	repoID, _ := body.ReadString()
	if hdr.Status != giop.ReplyUserException || repoID != orb.AppErrorRepoID {
		t.Errorf("the reply is %s %q, want %s %q", hdr.Status, repoID, giop.ReplyUserException, orb.AppErrorRepoID)
	}
}
