package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"

	"livedev"
	"livedev/internal/cdr"
	"livedev/internal/dyn"
	"livedev/internal/giop"
	"livedev/internal/h2b"
	"livedev/internal/h2x"
	"livedev/internal/ior"
	"livedev/internal/jsonb"
	"livedev/internal/orb"
	"livedev/internal/soap"
)

// callPath is one binding's call stack seen four ways: through the live
// client a user holds (cde), through the raw protocol client beneath it
// (raw), recomposed from the layers' public functions with a span around
// each (traced; a nil recorder runs the same code untraced), and — for
// the stages that run inside the server child, where no span can be placed
// from outside — the captured request bytes replayed in-process through
// the same public functions the server's handler calls (replay).
type callPath struct {
	b      int
	cde    callFn
	raw    callFn
	traced func(rec *recorder, op uint32) (dyn.Value, error)
	replay func(rec *recorder, op uint32) error
	// floorBody is the request body, handed to the matching reference
	// transport.
	floorBody []byte
	close     func()
}

// jsonCall and jsonReply mirror the JSON binding's wire objects
// (docs: internal/jsonb), which the package keeps unexported.
type jsonCall struct {
	Method string            `json:"method"`
	Args   []json.RawMessage `json:"args"`
}

type jsonReply struct {
	Result json.RawMessage `json:"result,omitempty"`
	Error  *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error,omitempty"`
}

func postBody(hc *http.Client, url, contentType string, body []byte, buf *bytes.Buffer) error {
	resp, err := hc.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	_ = resp.Body.Close()
	return err
}

// newCallPaths builds the four paths against the server child. methods
// names the server's class; replay runs on a generator-side copy of it.
func newCallPaths(h hello, clients []*livedev.Client, method string, slot int, arg dyn.Value, methods []string) ([]*callPath, error) {
	sig := methodSig(method, slot)
	args := []dyn.Value{arg}
	ctx := context.Background()
	hc := &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	var paths []*callPath
	fail := func(err error) ([]*callPath, error) {
		for _, p := range paths {
			p.close()
		}
		return nil, err
	}
	for b, bd := range bindings {
		bh := h.Bindings[bd.tech]
		class, err := buildClass(className(bd), methods)
		if err != nil {
			return fail(err)
		}
		inst := class.NewInstance()
		p := &callPath{b: b, cde: clientCall(clients[b], method, arg), close: func() {}}
		root, srvRoot := "call."+bd.key, "server_replay."+bd.key
		transport := "transport." + bd.key
		buf := new(bytes.Buffer)

		switch bd.tech {
		case "SOAP":
			ns := "urn:" + className(bd)
			params := []soap.NamedValue{{Name: "v", Value: arg}}
			sc := &soap.Client{Endpoint: bh.Endpoint, ServiceNS: ns, HTTPClient: hc}
			p.raw = func() (dyn.Value, error) { return sc.CallContext(ctx, method, params, sig.Result) }
			var reqXML string
			p.traced = func(rec *recorder, op uint32) (dyn.Value, error) {
				r := rec.begin(op, root, -1)
				defer rec.end(r)
				s := rec.begin(op, "soap.build_request", r)
				x, err := soap.BuildRequest(ns, method, params)
				rec.end(s)
				if err != nil {
					return dyn.Value{}, err
				}
				reqXML = x
				s = rec.begin(op, transport, r)
				err = postBody(hc, bh.Endpoint, `text/xml; charset="utf-8"`, []byte(x), buf)
				rec.end(s)
				if err != nil {
					return dyn.Value{}, err
				}
				s = rec.begin(op, "soap.parse_response", r)
				defer rec.end(s)
				parsed, err := soap.ParseResponse(buf.Bytes())
				if err != nil {
					return dyn.Value{}, err
				}
				if parsed.Fault != nil {
					return dyn.Value{}, parsed.Fault
				}
				return soap.DecodeValue(parsed.Return, sig.Result)
			}
			if _, err := p.traced(nil, 0); err != nil {
				return fail(fmt.Errorf("bench: recomposed SOAP call: %w", err))
			}
			reqBytes := []byte(reqXML)
			p.floorBody = reqBytes
			p.replay = func(rec *recorder, op uint32) error {
				r := rec.begin(op, srvRoot, -1)
				defer rec.end(r)
				s := rec.begin(op, "soap.parse_request", r)
				req, err := soap.ParseRequest(reqBytes)
				rec.end(s)
				if err != nil {
					return err
				}
				s = rec.begin(op, "dyn.lookup", r)
				msig, ok := class.Interface().Lookup(req.Method)
				rec.end(s)
				if !ok {
					return fmt.Errorf("bench: replay lookup of %s failed", req.Method)
				}
				s = rec.begin(op, "soap.decode_args", r)
				v, err := soap.DecodeValue(req.Params[0], msig.Params[0].Type)
				rec.end(s)
				if err != nil {
					return err
				}
				s = rec.begin(op, "dyn.invoke", r)
				out, err := inst.InvokeDistributed(req.Method, v)
				rec.end(s)
				if err != nil {
					return err
				}
				s = rec.begin(op, "soap.build_response", r)
				_, err = soap.BuildResponse(ns, req.Method, out)
				rec.end(s)
				return err
			}

		case "CORBA":
			ref, err := ior.ParseString(bh.IOR)
			if err != nil {
				return fail(err)
			}
			oc, err := orb.DialIOR(ref)
			if err != nil {
				return fail(err)
			}
			prof, err := ref.FirstIIOP()
			if err != nil {
				return fail(err)
			}
			nc, err := net.Dial("tcp", prof.Addr())
			if err != nil {
				_ = oc.Close()
				return fail(err)
			}
			p.close = func() { _ = oc.Close(); _ = nc.Close() }
			br := bufio.NewReaderSize(nc, 64<<10)
			key := append([]byte(nil), prof.ObjectKey...)
			p.raw = func() (dyn.Value, error) { return oc.InvokeContext(ctx, sig, args) }
			var reqID uint32
			var captured giop.Message
			p.traced = func(rec *recorder, op uint32) (dyn.Value, error) {
				r := rec.begin(op, root, -1)
				defer rec.end(r)
				reqID++
				s := rec.begin(op, "giop.encode_request", r)
				msg, err := giop.EncodeRequest(cdr.BigEndian,
					giop.RequestHeader{RequestID: reqID, ResponseExpected: true, ObjectKey: key, Operation: method},
					func(e *cdr.Encoder) error {
						c := rec.begin(op, "cdr.encode", s)
						defer rec.end(c)
						return cdr.EncodeValue(e, arg)
					})
				rec.end(s)
				if err != nil {
					return dyn.Value{}, err
				}
				if captured.Body == nil {
					captured = giop.Message{Type: msg.Type, Order: msg.Order, Body: append([]byte(nil), msg.Body...)}
				}
				s = rec.begin(op, transport, r)
				err = giop.WriteMessage(nc, msg)
				msg.Recycle()
				var reply giop.Message
				if err == nil {
					reply, err = giop.ReadMessage(br)
				}
				rec.end(s)
				if err != nil {
					return dyn.Value{}, err
				}
				s = rec.begin(op, "giop.decode_reply", r)
				defer rec.end(s)
				hdr, dec, err := giop.DecodeReply(reply)
				if err != nil {
					return dyn.Value{}, err
				}
				if hdr.Status != giop.ReplyNoException || hdr.RequestID != reqID {
					return dyn.Value{}, fmt.Errorf("bench: GIOP reply %d status %s", hdr.RequestID, hdr.Status)
				}
				c := rec.begin(op, "cdr.decode", s)
				defer rec.end(c)
				return cdr.DecodeValue(dec, sig.Result)
			}
			if _, err := p.traced(nil, 0); err != nil {
				p.close()
				return fail(fmt.Errorf("bench: recomposed CORBA call: %w", err))
			}
			p.floorBody = captured.Body
			p.replay = func(rec *recorder, op uint32) error {
				r := rec.begin(op, srvRoot, -1)
				defer rec.end(r)
				s := rec.begin(op, "giop.decode_request", r)
				hdr, dec, err := giop.DecodeRequest(captured)
				rec.end(s)
				if err != nil {
					return err
				}
				s = rec.begin(op, "dyn.lookup", r)
				msig, ok := class.Interface().Lookup(hdr.Operation)
				rec.end(s)
				if !ok {
					return fmt.Errorf("bench: replay lookup of %s failed", hdr.Operation)
				}
				s = rec.begin(op, "cdr.decode", r)
				v, err := cdr.DecodeValue(dec, msig.Params[0].Type)
				rec.end(s)
				if err != nil {
					return err
				}
				s = rec.begin(op, "dyn.invoke", r)
				out, err := inst.InvokeDistributed(hdr.Operation, v)
				rec.end(s)
				if err != nil {
					return err
				}
				s = rec.begin(op, "giop.encode_reply", r)
				reply, err := giop.EncodeReply(cdr.BigEndian, giop.ReplyHeader{RequestID: hdr.RequestID, Status: giop.ReplyNoException},
					func(e *cdr.Encoder) error {
						c := rec.begin(op, "cdr.encode", s)
						defer rec.end(c)
						return cdr.EncodeValue(e, out)
					})
				rec.end(s)
				reply.Recycle()
				return err
			}

		case "JSON":
			jc := &jsonb.Caller{Endpoint: bh.Endpoint, HTTPClient: hc}
			p.raw = func() (dyn.Value, error) { return jc.Call(ctx, sig, args) }
			var reqBytes []byte
			p.traced = func(rec *recorder, op uint32) (dyn.Value, error) {
				r := rec.begin(op, root, -1)
				defer rec.end(r)
				s := rec.begin(op, "jsonb.encode", r)
				raw, err := jsonb.EncodeValue(arg)
				var payload []byte
				if err == nil {
					payload, err = json.Marshal(jsonCall{Method: method, Args: []json.RawMessage{raw}})
				}
				rec.end(s)
				if err != nil {
					return dyn.Value{}, err
				}
				reqBytes = payload
				s = rec.begin(op, transport, r)
				err = postBody(hc, bh.Endpoint, jsonb.ContentType, payload, buf)
				rec.end(s)
				if err != nil {
					return dyn.Value{}, err
				}
				s = rec.begin(op, "jsonb.decode", r)
				defer rec.end(s)
				var reply jsonReply
				if err := json.Unmarshal(buf.Bytes(), &reply); err != nil {
					return dyn.Value{}, err
				}
				if reply.Error != nil {
					return dyn.Value{}, fmt.Errorf("bench: JSON call failed: %s", reply.Error.Code)
				}
				return jsonb.DecodeValue(reply.Result, sig.Result)
			}
			if _, err := p.traced(nil, 0); err != nil {
				return fail(fmt.Errorf("bench: recomposed JSON call: %w", err))
			}
			captured := append([]byte(nil), reqBytes...)
			p.floorBody = captured
			p.replay = func(rec *recorder, op uint32) error {
				r := rec.begin(op, srvRoot, -1)
				defer rec.end(r)
				s := rec.begin(op, "jsonb.parse_request", r)
				var req jsonCall
				err := json.Unmarshal(captured, &req)
				rec.end(s)
				if err != nil {
					return err
				}
				s = rec.begin(op, "dyn.lookup", r)
				msig, ok := class.Interface().Lookup(req.Method)
				rec.end(s)
				if !ok {
					return fmt.Errorf("bench: replay lookup of %s failed", req.Method)
				}
				s = rec.begin(op, "jsonb.decode", r)
				v, err := jsonb.DecodeValue(req.Args[0], msig.Params[0].Type)
				rec.end(s)
				if err != nil {
					return err
				}
				s = rec.begin(op, "dyn.invoke", r)
				out, err := inst.InvokeDistributed(req.Method, v)
				rec.end(s)
				if err != nil {
					return err
				}
				s = rec.begin(op, "jsonb.encode", r)
				raw, err := jsonb.EncodeValue(out)
				if err == nil {
					_, err = json.Marshal(jsonReply{Result: raw})
				}
				rec.end(s)
				return err
			}

		case "H2B":
			hcaller := &h2b.Caller{Endpoint: bh.Endpoint, Mux: bh.Mux}
			p.raw = func() (dyn.Value, error) { return hcaller.Call(ctx, sig, args) }
			conn, err := h2x.Dial(bh.Mux)
			if err != nil {
				return fail(err)
			}
			p.close = func() { _ = conn.Close() }
			var captured []byte
			p.traced = func(rec *recorder, op uint32) (dyn.Value, error) {
				r := rec.begin(op, root, -1)
				defer rec.end(r)
				s := rec.begin(op, "cdr.encode", r)
				e := cdr.GetEncoder(cdr.BigEndian)
				defer cdr.PutEncoder(e)
				err := cdr.EncodeValue(e, arg)
				rec.end(s)
				if err != nil {
					return dyn.Value{}, err
				}
				if captured == nil {
					captured = append([]byte(nil), e.Bytes()...)
				}
				s = rec.begin(op, transport, r)
				// The fast-path wire contract (docs/h2b-protocol.md).
				resp, err := conn.Do(ctx, &h2x.Request{Method: "POST", Authority: bh.Mux, Path: "/h2b",
					Header: [][2]string{
						{"content-type", h2b.CallContentType},
						{strings.ToLower(h2b.MethodHeader), method},
						{strings.ToLower(h2b.OrderHeader), h2b.OrderBig},
					}, Body: e.Bytes()})
				rec.end(s)
				if err != nil {
					return dyn.Value{}, err
				}
				if code := resp.HeaderValue(strings.ToLower(h2b.ErrorHeader)); code != "" || resp.Status != http.StatusOK {
					return dyn.Value{}, fmt.Errorf("bench: h2b call failed: %s (HTTP %d)", code, resp.Status)
				}
				s = rec.begin(op, "cdr.decode", r)
				defer rec.end(s)
				d := cdr.NewDecoder(resp.Body, cdr.BigEndian)
				d.SetZeroCopy(true)
				return cdr.DecodeValue(d, sig.Result)
			}
			if _, err := p.traced(nil, 0); err != nil {
				p.close()
				return fail(fmt.Errorf("bench: recomposed H2B call: %w", err))
			}
			p.floorBody = captured
			p.replay = func(rec *recorder, op uint32) error {
				r := rec.begin(op, srvRoot, -1)
				defer rec.end(r)
				s := rec.begin(op, "dyn.lookup", r)
				msig, ok := class.Interface().Lookup(method)
				rec.end(s)
				if !ok {
					return fmt.Errorf("bench: replay lookup of %s failed", method)
				}
				s = rec.begin(op, "cdr.decode", r)
				v, err := cdr.DecodeValue(cdr.NewDecoder(captured, cdr.BigEndian), msig.Params[0].Type)
				rec.end(s)
				if err != nil {
					return err
				}
				s = rec.begin(op, "dyn.invoke", r)
				out, err := inst.InvokeDistributed(method, v)
				rec.end(s)
				if err != nil {
					return err
				}
				s = rec.begin(op, "cdr.encode", r)
				e := cdr.GetEncoder(cdr.BigEndian)
				err = cdr.EncodeValue(e, out)
				cdr.PutEncoder(e)
				rec.end(s)
				return err
			}
		}
		paths = append(paths, p)
	}
	return paths, nil
}

// staticPaths are raw protocol clients against the two internal/static
// control servers: same wire stacks, precompiled dispatch.
func staticPaths(h hello, method string, slot int, arg dyn.Value) (soapCall, corbaCall callFn, closeFn func(), err error) {
	sig := methodSig(method, slot)
	ctx := context.Background()
	hc := &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	sc := &soap.Client{Endpoint: h.StaticSOAP, ServiceNS: "urn:BenchStatic", HTTPClient: hc}
	params := []soap.NamedValue{{Name: "v", Value: arg}}
	soapCall = func() (dyn.Value, error) { return sc.CallContext(ctx, method, params, sig.Result) }
	ref, err := ior.ParseString(h.StaticCORBA)
	if err != nil {
		return nil, nil, nil, err
	}
	oc, err := orb.DialIOR(ref)
	if err != nil {
		return nil, nil, nil, err
	}
	args := []dyn.Value{arg}
	corbaCall = func() (dyn.Value, error) { return oc.InvokeContext(ctx, sig, args) }
	return soapCall, corbaCall, func() { _ = oc.Close(); hc.CloseIdleConnections() }, nil
}
