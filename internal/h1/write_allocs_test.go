//go:build !race

package h1

import (
	"bufio"
	"bytes"
	"context"
	"net"
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
