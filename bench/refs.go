package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"livedev/internal/cdr"
	"livedev/internal/giop"
	"livedev/internal/h2x"
	"livedev/internal/iiop"
)

// The reference transports: servers the child runs beside the SDE so the
// traced pass can price each call stack's transport against a floor that
// crosses the same process boundary with the same body bytes. The ref.*
// three are standard library only; the iiop and h2x pair are the repo's
// own transports behind a handler that does no dispatch.

// refAddrs is where the child's reference servers listen.
type refAddrs struct {
	TCP   string `json:"tcp"`
	HTTP1 string `json:"http1"`
	H2C   string `json:"h2c"`
	IIOP  string `json:"iiop"`
	H2X   string `json:"h2x"`
}

// refServers owns the child's reference listeners.
type refServers struct {
	addrs   refAddrs
	closers []func()
}

func (r *refServers) close() {
	for _, c := range r.closers {
		c()
	}
}

// echoHTTP reads the whole request before answering: an HTTP/1.1 handler
// that starts its response early loses the rest of the request body.
func echoHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(body)
}

func startRefServers() (*refServers, error) {
	r := &refServers{}

	// Bare loopback echo: whatever arrives goes straight back.
	tcpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("bench: ref tcp listen: %w", err)
	}
	r.addrs.TCP = tcpLn.Addr().String()
	r.closers = append(r.closers, func() { _ = tcpLn.Close() })
	go func() {
		for {
			c, err := tcpLn.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				_, _ = io.Copy(c, c)
			}()
		}
	}()

	// net/http echo, once as HTTP/1.1 and once as unencrypted HTTP/2.
	for _, h2 := range []bool{false, true} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, fmt.Errorf("bench: ref http listen: %w", err)
		}
		srv := &http.Server{Handler: http.HandlerFunc(echoHTTP), ReadHeaderTimeout: 10 * time.Second}
		if h2 {
			var p http.Protocols
			p.SetUnencryptedHTTP2(true)
			srv.Protocols = &p
			r.addrs.H2C = "http://" + ln.Addr().String() + "/"
		} else {
			r.addrs.HTTP1 = "http://" + ln.Addr().String() + "/"
		}
		r.closers = append(r.closers, func() { _ = srv.Close() })
		go func() { _ = srv.Serve(ln) }()
	}

	// iiop behind a handler that returns the argument octets undecoded.
	iiopSrv := iiop.NewServer(iiop.HandlerFunc(func(_ context.Context, h giop.RequestHeader, args *cdr.Decoder, order cdr.ByteOrder) giop.Message {
		body, err := args.ReadOctetSeq()
		status := giop.ReplyNoException
		if err != nil {
			status, body = giop.ReplySystemException, nil
		}
		m, _ := giop.EncodeReply(order, giop.ReplyHeader{RequestID: h.RequestID, Status: status}, func(e *cdr.Encoder) error {
			e.WriteOctetSeq(body)
			return nil
		})
		return m
	}))
	iiopAddr, err := iiopSrv.Listen("127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, fmt.Errorf("bench: ref iiop listen: %w", err)
	}
	r.addrs.IIOP = iiopAddr.String()
	r.closers = append(r.closers, func() { _ = iiopSrv.Close() })

	// h2x behind a handler that returns the body.
	h2xSrv := h2x.NewServer(h2x.HandlerFunc(func(_ context.Context, req *h2x.Request) *h2x.Response {
		return &h2x.Response{Status: http.StatusOK, Body: append([]byte(nil), req.Body...)}
	}))
	h2xAddr, err := h2xSrv.Listen("127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, fmt.Errorf("bench: ref h2x listen: %w", err)
	}
	r.addrs.H2X = h2xAddr
	r.closers = append(r.closers, func() { _ = h2xSrv.Close() })
	return r, nil
}

// The client halves. Each returns a closure performing one round trip
// with body and checking that the same number of bytes came back.

func tcpPingPong(addr string, body []byte) (call func() error, closeFn func(), err error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	in := make([]byte, len(body))
	return func() error {
		if _, err := c.Write(body); err != nil {
			return err
		}
		_, err := io.ReadFull(c, in)
		return err
	}, func() { _ = c.Close() }, nil
}

func httpPost(hc *http.Client, url string, body []byte) func() error {
	buf := new(bytes.Buffer)
	return func() error {
		resp, err := hc.Post(url, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			return err
		}
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		_ = resp.Body.Close()
		if err == nil && buf.Len() != len(body) {
			err = fmt.Errorf("bench: echo returned %d bytes, sent %d", buf.Len(), len(body))
		}
		return err
	}
}

// h2cClient is a net/http client speaking prior-knowledge HTTP/2 over one
// cleartext connection — the standard library's answer to internal/h2x.
func h2cClient() *http.Client {
	var p http.Protocols
	p.SetUnencryptedHTTP2(true)
	return &http.Client{Transport: &http.Transport{Protocols: &p, MaxConnsPerHost: 1}}
}

func iiopEcho(addr string, body []byte) (call func() error, closeFn func(), err error) {
	conn, err := iiop.Dial(addr)
	if err != nil {
		return nil, nil, err
	}
	key := []byte("noop")
	ctx := context.Background()
	return func() error {
		return conn.InvokeInto(ctx, key, "noop", cdr.BigEndian, func(e *cdr.Encoder) error {
			e.WriteOctetSeq(body)
			return nil
		}, func(h giop.ReplyHeader, d *cdr.Decoder) error {
			if h.Status != giop.ReplyNoException {
				return fmt.Errorf("bench: iiop echo status %s", h.Status)
			}
			got, err := d.ReadOctetSeqRef()
			if err == nil && len(got) != len(body) {
				err = fmt.Errorf("bench: iiop echo returned %d bytes, sent %d", len(got), len(body))
			}
			return err
		})
	}, func() { _ = conn.Close() }, nil
}

func h2xEcho(addr string, body []byte) (call func() error, closeFn func(), err error) {
	conn, err := h2x.Dial(addr)
	if err != nil {
		return nil, nil, err
	}
	req := &h2x.Request{Method: "POST", Scheme: "http", Authority: addr, Path: "/echo",
		Header: [][2]string{{"content-type", "application/octet-stream"}}, Body: body}
	ctx := context.Background()
	return func() error {
		resp, err := conn.Do(ctx, req)
		if err != nil {
			return err
		}
		if len(resp.Body) != len(body) {
			return fmt.Errorf("bench: h2x echo returned %d bytes, sent %d", len(resp.Body), len(body))
		}
		return nil
	}, func() { _ = conn.Close() }, nil
}
