package iiop

import (
	"context"
	"math/rand"
	"net"
	"testing"
	"time"

	"livedev/internal/cdr"
	"livedev/internal/giop"
)

// TestServerSurvivesGarbage writes assorted garbage to the server's port;
// the server must drop those connections cleanly and keep serving valid
// clients.
func TestServerSurvivesGarbage(t *testing.T) {
	addr, stop := startServer(t, echoHandler())
	defer stop()

	payloads := [][]byte{
		[]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"), // wrong protocol entirely
		[]byte("GIOP"), // truncated header
		{'G', 'I', 'O', 'P', 9, 9, 0, 0, 0, 0, 0, 0},             // absurd version
		{'G', 'I', 'O', 'P', 1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}, // hostile size
		make([]byte, 64), // zeros
	}
	r := rand.New(rand.NewSource(5))
	junk := make([]byte, 512)
	r.Read(junk)
	payloads = append(payloads, junk)

	for i, p := range payloads {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("payload %d: dial: %v", i, err)
		}
		_, _ = conn.Write(p)
		// Read whatever comes back (MessageError or close) with a bound.
		_ = conn.SetReadDeadline(time.Now().Add(time.Second))
		buf := make([]byte, 64)
		_, _ = conn.Read(buf)
		_ = conn.Close()
	}

	// A valid client still works.
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	h, body, err := invoke(context.Background(), conn, nil, "echo", cdr.BigEndian, func(e *cdr.Encoder) error {
		e.WriteString("ok")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != giop.ReplyNoException {
		t.Fatalf("status = %v", h.Status)
	}
	if s, _ := body.ReadString(); s != "okok" {
		t.Errorf("echo = %q", s)
	}
}

// TestServerRejectsUnparseableRequestHeader sends a well-framed GIOP
// Request whose body is not a valid request header: the server answers
// MessageError and drops the connection.
func TestServerRejectsUnparseableRequestHeader(t *testing.T) {
	addr, stop := startServer(t, echoHandler())
	defer stop()

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	msg := giop.Message{Type: giop.MsgRequest, Order: cdr.BigEndian, Body: []byte{0xFF}}
	if err := giop.WriteMessage(raw, msg); err != nil {
		t.Fatal(err)
	}
	reply, err := giop.ReadMessage(raw)
	if err != nil {
		t.Fatalf("expected a MessageError reply, got read error %v", err)
	}
	if reply.Type != giop.MsgMessageError {
		t.Errorf("reply type = %v", reply.Type)
	}
}

// TestServerAnswersUnexpectedMessageTypes: LocateRequest and friends get
// MessageError, not silence.
func TestServerAnswersUnexpectedMessageTypes(t *testing.T) {
	addr, stop := startServer(t, echoHandler())
	defer stop()

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	msg := giop.Message{Type: giop.MsgLocateRequest, Order: cdr.BigEndian}
	if err := giop.WriteMessage(raw, msg); err != nil {
		t.Fatal(err)
	}
	reply, err := giop.ReadMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != giop.MsgMessageError {
		t.Errorf("reply type = %v", reply.Type)
	}
}

// TestClientHandlesCloseConnection: a server-initiated CloseConnection
// fails pending invocations with ErrConnClosed.
func TestClientHandlesCloseConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		// Read the request, then slam the door GIOP-style.
		_, _ = giop.ReadMessage(c)
		_ = giop.WriteMessage(c, giop.Message{Type: giop.MsgCloseConnection, Order: cdr.BigEndian})
		_ = c.Close()
	}()

	conn, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, _, err = invoke(context.Background(), conn, nil, "anything", cdr.BigEndian, nil)
	if err == nil {
		t.Fatal("invocation against closing server should fail")
	}
}

// TestClientHandlesGarbageReply: a server that answers with garbage fails
// the client cleanly (no hang, no panic).
func TestClientHandlesGarbageReply(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		_, _ = giop.ReadMessage(c)
		_, _ = c.Write([]byte("not a giop message at all, sorry"))
		_ = c.Close()
	}()

	conn, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	done := make(chan error, 1)
	go func() {
		_, _, err := invoke(context.Background(), conn, nil, "anything", cdr.BigEndian, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("garbage reply should fail the invocation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("invocation hung on garbage reply")
	}
}
