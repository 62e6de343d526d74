package giop

import (
	"bytes"
	"strings"
	"testing"

	"livedev/internal/cdr"
)

// staleReply is the reply a stale call gets: BAD_OPERATION, with the
// interface document in a DocContextID service context.
func staleReply(t testing.TB, order cdr.ByteOrder, dc DocContext) Message {
	t.Helper()
	se := &SystemException{RepoID: RepoBadOperation, Minor: 1, Completed: CompletedNo}
	msg, err := EncodeReply(order, ReplyHeader{
		Contexts:  []ServiceContext{dc.Context(order)},
		RequestID: 11, Status: ReplySystemException,
	}, se.Encode)
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

var sampleDoc = DocContext{Version: 7, DescriptorVersion: 12, Epoch: 40, Generation: 0xDEADBEEF12,
	Text: "module CalcModule {\n  interface Calc {\n    long plus(in long a, in long b);\n  };\n};\n"}

func TestReplyContextsRoundTrip(t *testing.T) {
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		// An odd-length first entry, so the second one starts after padding.
		contexts := []ServiceContext{{ID: 0xBEEF, Data: []byte{1, 2, 3}}, sampleDoc.Context(order)}
		msg, err := EncodeReply(order, ReplyHeader{Contexts: contexts, RequestID: 5, Status: ReplySystemException},
			(&SystemException{RepoID: RepoBadOperation, Minor: 3}).Encode)
		if err != nil {
			t.Fatal(err)
		}
		h, body, err := DecodeReply(msg)
		if err != nil {
			t.Fatal(err)
		}
		if h.RequestID != 5 || h.Status != ReplySystemException || len(h.Contexts) != 2 {
			t.Fatalf("%v: header = %+v", order, h)
		}
		for i, sc := range h.Contexts {
			if sc.ID != contexts[i].ID || !bytes.Equal(sc.Data, contexts[i].Data) {
				t.Errorf("%v: context %d = %+v, want %+v", order, i, sc, contexts[i])
			}
		}
		if se, err := DecodeSystemException(body); err != nil || se.Minor != 3 {
			t.Errorf("%v: body after the contexts = %+v, %v", order, se, err)
		}
		dc, err := ParseDocContext(h.Contexts[1])
		if err != nil || dc != sampleDoc {
			t.Errorf("%v: document context = %+v, %v", order, dc, err)
		}
	}
}

// TestReplyDocWrittenInPlace: the document context EncodeReply writes in
// place for ReplyHeader.Doc is the one cdr's aligning encoder writes as a
// stand-alone encapsulation, here at offset 28 of the body, not a multiple
// of 8, after a 7-octet entry and its padding: the counters align from the
// encapsulation's flag octet, not from the body's start. Context gives the
// same bytes.
func TestReplyDocWrittenInPlace(t *testing.T) {
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		aligned, err := cdr.EncodeEncapsulation(order, func(e *cdr.Encoder) error {
			for _, v := range [...]uint64{sampleDoc.Version, sampleDoc.DescriptorVersion, sampleDoc.Epoch, sampleDoc.Generation} {
				e.WriteULongLong(v)
			}
			e.WriteString(sampleDoc.Text)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		first := ServiceContext{ID: 0xBEEF, Data: []byte{1, 2, 3, 4, 5, 6, 7}}
		reply := func(h ReplyHeader) []byte {
			h.RequestID, h.Status = 5, ReplySystemException
			msg, err := EncodeReply(order, h, (&SystemException{RepoID: RepoBadOperation, Minor: 3}).Encode)
			if err != nil {
				t.Fatal(err)
			}
			return msg.Body
		}
		want := reply(ReplyHeader{Contexts: []ServiceContext{first, {ID: DocContextID, Data: aligned}}})
		if got := reply(ReplyHeader{Contexts: []ServiceContext{first}, Doc: &sampleDoc}); !bytes.Equal(got, want) {
			t.Errorf("%v: in place\n got %x\nwant %x", order, got, want)
		}
		if got := sampleDoc.Context(order); !bytes.Equal(got.Data, aligned) {
			t.Errorf("%v: Context\n got %x\nwant %x", order, got.Data, aligned)
		}
	}
}

func TestDecodeReplyRefusesMalformedContexts(t *testing.T) {
	good := staleReply(t, cdr.BigEndian, DocContext{Version: 1, Text: "x"}).Body // a 1+7+32+6 = 46-octet context: 2 octets of padding
	lying := append([]byte{0xFF, 0xFF, 0xFF, 0xFF}, good[4:]...)
	padded := bytes.Clone(good)
	padded[4+4+4+46] = 9 // the first padding octet after the context's data
	for name, body := range map[string][]byte{
		"count beyond the body": lying,
		"nonzero padding":       padded,
	} {
		if _, _, err := DecodeReply(Message{Type: MsgReply, Order: cdr.BigEndian, Body: body}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for n := 0; n < len(good); n++ {
		if _, _, err := DecodeReply(Message{Type: MsgReply, Order: cdr.BigEndian, Body: good[:n]}); err == nil && n < 4+4+4+46+2+8 {
			t.Errorf("reply cut at %d/%d octets accepted", n, len(good))
		}
	}
}

func TestParseDocContextRefusals(t *testing.T) {
	sc := sampleDoc.Context(cdr.LittleEndian)
	if _, err := ParseDocContext(ServiceContext{ID: 1, Data: sc.Data}); err == nil {
		t.Error("another context id accepted")
	}
	for n := 0; n < len(sc.Data); n++ {
		if _, err := ParseDocContext(ServiceContext{ID: DocContextID, Data: sc.Data[:n]}); err == nil {
			t.Errorf("context cut at %d/%d octets accepted", n, len(sc.Data))
		}
	}
	for name, data := range map[string][]byte{
		"octets left over": append(bytes.Clone(sc.Data), 0),
		"nonzero padding":  append([]byte{1, 0, 0, 5}, sc.Data[4:]...),
		"bad byte order":   append([]byte{2}, sc.Data[1:]...),
	} {
		if _, err := ParseDocContext(ServiceContext{ID: DocContextID, Data: data}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzDecodeReply: on arbitrary bodies, in either byte order, DecodeReply
// never panics or reads past the body; a reply it accepts re-encodes byte
// for byte through EncodeReply; and a document context ParseDocContext
// accepts re-encodes byte for byte through Context. Everything else is
// refused, which the client treats as a reply without a document.
func FuzzDecodeReply(f *testing.F) {
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		f.Add(order == cdr.LittleEndian, staleReply(f, order, sampleDoc).Body)
		msg, _ := EncodeReply(order, ReplyHeader{RequestID: 3, Status: ReplyNoException},
			func(e *cdr.Encoder) error { e.WriteLong(42); return nil })
		f.Add(order == cdr.LittleEndian, msg.Body)
		msg, _ = EncodeReply(order, ReplyHeader{
			Contexts:  []ServiceContext{{ID: 0xCAFE, Data: []byte("abcde")}, {ID: DocContextID, Data: []byte{0}}},
			RequestID: 4, Status: ReplyUserException,
		}, nil)
		f.Add(order == cdr.LittleEndian, msg.Body)
	}
	f.Add(false, []byte(strings.Repeat("\xff", 16)))
	f.Fuzz(func(t *testing.T, le bool, body []byte) {
		order := cdr.BigEndian
		if le {
			order = cdr.LittleEndian
		}
		h, d, err := DecodeReply(Message{Type: MsgReply, Order: order, Body: body})
		if err != nil {
			return
		}
		if d.Pos() > len(body) {
			t.Fatalf("decoder at %d past a %d-octet body", d.Pos(), len(body))
		}
		rest := body[d.Pos():]
		again, err := EncodeReply(order, h, func(e *cdr.Encoder) error { e.WriteOctets(rest); return nil })
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Body, body) {
			t.Fatalf("accepted reply re-encodes differently:\n got %x\nwant %x", again.Body, body)
		}
		for _, sc := range h.Contexts {
			dc, err := ParseDocContext(sc)
			if err != nil {
				continue
			}
			if re := dc.Context(cdr.ByteOrder(sc.Data[0])); !bytes.Equal(re.Data, sc.Data) {
				t.Fatalf("accepted document context re-encodes differently:\n got %x\nwant %x", re.Data, sc.Data)
			}
		}
	})
}
