//go:build !race

package h1

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// TestWriteAllocsPost pins the client side of a steady-state small call:
// request write plus reply read on a pooled connection. The server is a
// raw loop that allocates nothing per request, so every allocation counted
// is the client's.
func TestWriteAllocsPost(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	reply := []byte("HTTP/1.1 200 OK\r\nContent-Type: text/xml\r\nContent-Length: 64\r\n\r\n" + string(bytes.Repeat([]byte("r"), 64)))
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer func() { _ = c.Close() }()
		br := bufio.NewReader(c)
		for {
			length := 0
			for {
				line, err := br.ReadSlice('\n')
				if err != nil {
					return
				}
				if len(line) <= 2 {
					break
				}
				if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
					length, _ = strconv.Atoi(string(bytes.TrimSpace(v)))
				}
			}
			if _, err := br.Discard(length); err != nil {
				return
			}
			if _, err := c.Write(reply); err != nil {
				return
			}
		}
	}()
	url := "http://" + ln.Addr().String() + "/call"
	header := [][2]string{{"Content-Type", "text/xml"}, {"SOAPAction", `"urn:S#echo"`}}
	body := bytes.Repeat([]byte("q"), 64)
	dst := make([]byte, 0, 4<<10)
	call := func(ctx context.Context) func() {
		return func() {
			r, err := Post(ctx, nil, url, header, body, dst)
			if err != nil || len(r.Body) != 64 {
				t.Fatalf("call: %d bytes, %v", len(r.Body), err)
			}
		}
	}
	call(context.Background())() // dial and pool the connection
	if allocs := testing.AllocsPerRun(200, call(context.Background())); allocs != 0 {
		t.Errorf("a pooled call allocates %.1f times, want 0", allocs)
	}
	// A deadline (as a Dial WithTimeout client's calls carry) adds the
	// cancellation hook: context.AfterFunc and its closure.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if allocs := testing.AllocsPerRun(200, call(ctx)); allocs > 3 {
		t.Errorf("a pooled call with a deadline allocates %.1f times, want at most 3", allocs)
	}
}

// TestWriteAllocsServe pins the server side of a steady-state small call
// on a kept-alive connection: request read, a SOAP-shaped handler (body
// read into a reused buffer, Content-Type and Content-Length set, one
// Write) and reply write. The client is a raw loop that allocates nothing
// per call, so every allocation counted is the server's: the request head
// as a string, the handler's two header values and its length string, and
// the canonical form of the request's "SOAPAction" header name. The calls
// alternate between two SOAPActions, so no two heads in a row are equal.
func TestWriteAllocsServe(t *testing.T) {
	var in bytes.Buffer
	reply := bytes.Repeat([]byte("r"), 600)
	_, addr := serveH1(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		in.Reset()
		if _, err := in.ReadFrom(r.Body); err != nil {
			t.Error(err)
		}
		w.Header().Set("Content-Type", "text/xml; charset=utf-8")
		w.Header().Set("Content-Length", strconv.Itoa(len(reply)))
		_, _ = w.Write(reply)
	}))
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	body := bytes.Repeat([]byte("q"), 600)
	var reqs [2][]byte
	for i, action := range []string{"echo", "ping"} {
		reqs[i] = []byte("POST /soap/Echo HTTP/1.1\r\nHost: " + addr + "\r\nContent-Type: text/xml; charset=utf-8\r\n" +
			"SOAPAction: \"urn:Echo#" + action + "\"\r\nContent-Length: 600\r\n\r\n" + string(body))
	}
	n := 0
	// The reply's length is fixed: Date's value has a fixed width.
	head := "HTTP/1.1 200 OK\r\nContent-Length: 600\r\nContent-Type: text/xml; charset=utf-8\r\nDate: Mon, 02 Jan 2006 15:04:05 GMT\r\n\r\n"
	got := make([]byte, len(head)+len(reply))
	call := func() {
		n++
		if _, err := nc.Write(reqs[n%2]); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(nc, got); err != nil || !bytes.HasSuffix(got, reply) {
			t.Fatalf("reply %q, %v", got, err)
		}
	}
	call() // the connection's buffers
	call()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(200, call)
	runtime.ReadMemStats(&after)
	t.Logf("%.1f allocations, %d bytes per served call", allocs, (after.TotalAlloc-before.TotalAlloc)/201)
	if allocs > 5 {
		t.Errorf("a served call allocates %.1f times, want at most 5", allocs)
	}
}
