package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"livedev/internal/cdr"
	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/giop"
	"livedev/internal/idl"
	"livedev/internal/ifsvr"
	"livedev/internal/jsonb"
	"livedev/internal/soap"
	"livedev/internal/wsdl"
)

// timeNS prices one call of fn in nanoseconds at the nominal clock: fn
// runs in batches for about d, each batch timed as a whole so the clock
// reads do not swamp a 20 ns function and a calibration sample taken
// between batches, and the median batch mean is returned.
func timeNS(cal *calib, d time.Duration, fn func()) float64 {
	fn() // first call pays lazy initialisation
	batch := 1
	for {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		if el := time.Since(t0); el >= 200*time.Microsecond || batch >= 1<<20 {
			break
		}
		batch *= 2
	}
	var means []float64
	start := time.Now()
	for deadline := start.Add(d); time.Now().Before(deadline) || len(means) < 5; {
		cal.tick()
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		means = append(means, float64(time.Since(t0).Nanoseconds())/float64(batch))
	}
	return median(means) / cal.factor(start, time.Now())
}

// must keeps probe bodies readable: a probe whose input the harness built
// itself cannot fail unless the harness is wrong.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("bench: layer probe: %v", err))
	}
}

// layerProbes prices the layers' public functions in-process, on the
// workload's payload (method slot, arg) and on the 8-method class the
// server deploys. each is the time budget of one probe; commits is the
// length of the WAL the recovery probe replays; workRoot hosts the durable
// stores it opens.
func layerProbes(res *result, cal *calib, in *inputs, method string, slot int, arg dyn.Value, each time.Duration, commits int, workRoot string) error {
	class, err := buildClass(className(bindings[0]), in.methods)
	if err != nil {
		return err
	}
	inst := class.NewInstance()
	desc := class.Interface()
	sig := methodSig(method, slot)

	// dyn
	res.set("dyn.invoke_ns", timeNS(cal, each, func() {
		_, err := inst.InvokeDistributed(method, arg)
		must(err)
	}))
	res.set("dyn.lookup_ns", timeNS(cal, each, func() {
		if _, ok := class.Interface().Lookup(method); !ok {
			panic("bench: lookup failed")
		}
	}))

	// soap: the four codec stages of one call, on its real envelopes.
	const ns = "urn:Bench"
	params := []soap.NamedValue{{Name: "v", Value: arg}}
	reqXML, err := soap.BuildRequest(ns, method, params)
	if err != nil {
		return err
	}
	respXML, err := soap.BuildResponse(ns, method, arg)
	if err != nil {
		return err
	}
	reqBytes, respBytes := []byte(reqXML), []byte(respXML)
	buildReq := func() { _, err := soap.BuildRequest(ns, method, params); must(err) }
	parseReq := func() {
		req, err := soap.ParseRequest(reqBytes)
		must(err)
		_, err = soap.DecodeValue(req.Params[0], sig.Params[0].Type)
		must(err)
	}
	buildResp := func() { _, err := soap.BuildResponse(ns, method, arg); must(err) }
	parseResp := func() {
		resp, err := soap.ParseResponse(respBytes)
		must(err)
		_, err = soap.DecodeValue(resp.Return, sig.Result)
		must(err)
	}
	res.set("soap.build_request_ns", timeNS(cal, each, buildReq))
	res.set("soap.parse_request_ns", timeNS(cal, each, parseReq))
	res.set("soap.build_response_ns", timeNS(cal, each, buildResp))
	res.set("soap.parse_response_ns", timeNS(cal, each, parseResp))
	res.set("soap.codec_allocs_per_call", testing.AllocsPerRun(20, func() {
		buildReq()
		parseReq()
		buildResp()
		parseResp()
	}))
	res.set("soap.wire_bytes_per_call", float64(len(reqBytes)+len(respBytes)))

	// cdr and giop
	enc := cdr.NewEncoder(cdr.BigEndian)
	must(cdr.EncodeValue(enc, arg))
	cdrBytes := append([]byte(nil), enc.Bytes()...)
	res.set("cdr.encode_ns", timeNS(cal, each, func() {
		e := cdr.GetEncoder(cdr.BigEndian)
		must(cdr.EncodeValue(e, arg))
		cdr.PutEncoder(e)
	}))
	dec := cdr.NewDecoder(nil, cdr.BigEndian)
	res.set("cdr.decode_ns", timeNS(cal, each, func() {
		dec.Reset(cdrBytes, cdr.BigEndian)
		_, err := cdr.DecodeValue(dec, sig.Result)
		must(err)
	}))
	res.set("cdr.wire_bytes_per_call", float64(2*len(cdrBytes)))
	encodeArg := func(e *cdr.Encoder) error { return cdr.EncodeValue(e, arg) }
	reqHdr := giop.RequestHeader{RequestID: 7, ResponseExpected: true, ObjectKey: []byte("BenchCORBA"), Operation: method}
	repHdr := giop.ReplyHeader{RequestID: 7, Status: giop.ReplyNoException}
	own := func(m giop.Message) giop.Message {
		c := giop.Message{Type: m.Type, Order: m.Order, Body: append([]byte(nil), m.Body...)}
		m.Recycle()
		return c
	}
	m, err := giop.EncodeRequest(cdr.BigEndian, reqHdr, encodeArg)
	if err != nil {
		return err
	}
	reqMsg := own(m)
	if m, err = giop.EncodeReply(cdr.BigEndian, repHdr, encodeArg); err != nil {
		return err
	}
	repMsg := own(m)
	res.set("giop.encode_request_ns", timeNS(cal, each, func() {
		m, err := giop.EncodeRequest(cdr.BigEndian, reqHdr, encodeArg)
		must(err)
		m.Recycle()
	}))
	res.set("giop.decode_request_ns", timeNS(cal, each, func() {
		_, d, err := giop.DecodeRequest(reqMsg)
		must(err)
		_, err = cdr.DecodeValue(d, sig.Params[0].Type)
		must(err)
	}))
	res.set("giop.encode_reply_ns", timeNS(cal, each, func() {
		m, err := giop.EncodeReply(cdr.BigEndian, repHdr, encodeArg)
		must(err)
		m.Recycle()
	}))
	res.set("giop.decode_reply_ns", timeNS(cal, each, func() {
		_, d, err := giop.DecodeReply(repMsg)
		must(err)
		_, err = cdr.DecodeValue(d, sig.Result)
		must(err)
	}))

	// jsonb: value codec and interface document
	raw, err := jsonb.EncodeValue(arg)
	if err != nil {
		return err
	}
	res.set("jsonb.encode_ns", timeNS(cal, each, func() { _, err := jsonb.EncodeValue(arg); must(err) }))
	res.set("jsonb.decode_ns", timeNS(cal, each, func() { _, err := jsonb.DecodeValue(raw, sig.Result); must(err) }))
	callBytes, _ := json.Marshal(jsonCall{Method: method, Args: []json.RawMessage{raw}})
	replyBytes, _ := json.Marshal(jsonReply{Result: raw})
	res.set("jsonb.wire_bytes_per_call", float64(len(callBytes)+len(replyBytes)))
	const endpoint = "http://127.0.0.1:1/x"
	jdoc, err := jsonb.GenerateDoc(desc, endpoint)
	if err != nil {
		return err
	}
	res.set("jsonb.generate_doc_ns", timeNS(cal, each, func() { _, err := jsonb.GenerateDoc(desc, endpoint); must(err) }))
	res.set("jsonb.parse_doc_ns", timeNS(cal, each, func() { _, _, err := jsonb.ParseDoc(jdoc); must(err) }))

	// wsdl and idl: generate and compile the 8-method interface
	wsdlXML, err := wsdl.Generate(desc, endpoint).XML()
	if err != nil {
		return err
	}
	wsdlBytes := []byte(wsdlXML)
	res.set("wsdl.generate_ns", timeNS(cal, each, func() { _, err := wsdl.Generate(desc, endpoint).XML(); must(err) }))
	res.set("wsdl.parse_ns", timeNS(cal, each, func() { _, err := wsdl.Parse(wsdlBytes); must(err) }))
	idoc, err := idl.Generate(desc)
	if err != nil {
		return err
	}
	idlText := idl.Print(idoc)
	res.set("idl.generate_ns", timeNS(cal, each, func() {
		d, err := idl.Generate(desc)
		must(err)
		_ = idl.Print(d)
	}))
	res.set("idl.parse_resolve_ns", timeNS(cal, each, func() {
		d, err := idl.Parse(idlText)
		must(err)
		_, err = idl.Resolve(d, desc.ClassName)
		must(err)
	}))

	// ifsvr: one publication of that WSDL, in memory and through the WAL
	const path = "/wsdl/Probe.wsdl"
	var ver uint64
	mem := ifsvr.NewStore(0, nil)
	res.set("ifsvr.publish_mem_ns", timeNS(cal, each, func() {
		ver++
		mem.PublishVersioned(path, "text/xml", wsdlXML, ver)
	}))
	// One pending event behind the cursor: what a held stream's pump asks
	// the journal on every wake.
	var evBuf []ifsvr.StoreEvent
	cursor := mem.Epoch() - 1
	res.set("ifsvr.replay_events_into_ns", timeNS(cal, each, func() {
		var ok bool
		if evBuf, ok = mem.ReplayEventsInto(path, cursor, evBuf); !ok || len(evBuf) != 1 {
			panic("bench: journal did not return the one pending event")
		}
	}))
	mem.Close()
	walDir, err := os.MkdirTemp(workRoot, "probe-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	wal, err := ifsvr.OpenStore(ifsvr.StoreConfig{Dir: walDir, Sync: ifsvr.SyncNone})
	if err != nil {
		return err
	}
	res.set("ifsvr.publish_wal_ns", timeNS(cal, each, func() {
		ver++
		wal.PublishVersioned(path, "text/xml", wsdlXML, ver)
	}))
	doc, err := wal.Get(path)
	wal.Close()
	if err != nil {
		return err
	}
	res.set("ifsvr.event_payload_ns", timeNS(cal, each, func() { _ = ifsvr.EventPayload(path, doc) }))

	// ifsvr: recovery of a store whose WAL holds that many commits
	recoverDir, err := os.MkdirTemp(workRoot, "probe-recover-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(recoverDir)
	cfg := ifsvr.StoreConfig{Dir: recoverDir, Sync: ifsvr.SyncNone, SnapshotEvery: 1 << 30}
	st, err := ifsvr.OpenStore(cfg)
	if err != nil {
		return err
	}
	for i := 1; i <= commits; i++ {
		st.PublishVersioned(path, "text/xml", wsdlXML, uint64(i))
	}
	if err := st.Crash(); err != nil {
		return err
	}
	cal.ticks(setupTicks)
	t0 := time.Now()
	st, err = ifsvr.OpenStore(cfg)
	recoverMS := float64(time.Since(t0)) / float64(time.Millisecond)
	cal.ticks(setupTicks)
	recoverMS /= cal.factor(t0.Add(-time.Second), time.Now())
	if err != nil {
		return err
	}
	if got := st.Version(path); got != uint64(commits) {
		res.fail("recovered store serves version %d of %s, want %d", got, path, commits)
	}
	st.Close()
	res.set("ifsvr.open_recover_ms", recoverMS)

	// repl: the frame a leader ships per commit
	ev := ifsvr.StoreEvent{Path: path, Doc: doc, Payload: ifsvr.EventPayload(path, doc)}
	frame := ifsvr.EncodeCommitFrame(1, []ifsvr.StoreEvent{ev})
	_, payload, _, ok := ifsvr.DecodeFrame(frame)
	if !ok {
		return fmt.Errorf("bench: commit frame does not decode")
	}
	res.set("repl.encode_commit_frame_ns", timeNS(cal, each, func() { _ = ifsvr.EncodeCommitFrame(1, []ifsvr.StoreEvent{ev}) }))
	res.set("repl.decode_commit_frame_ns", timeNS(cal, each, func() { _, _, err := ifsvr.DecodeCommitFrame(payload); must(err) }))

	// core: the forced-publication entry point, idle and with the stability
	// timer armed (the stale_recovery server path without the wire)
	pubStore := ifsvr.NewStore(0, nil)
	defer pubStore.Close()
	pub := core.NewDLPublisher(class, stableTimeout, nil, func(d dyn.InterfaceDescriptor) error {
		text, err := wsdl.Generate(d, endpoint).XML()
		if err != nil {
			return err
		}
		pubStore.PublishVersioned(path, "text/xml", text, d.Version)
		return nil
	})
	defer pub.Close()
	pub.PublishNow()
	pub.WaitIdle()
	res.set("core.ensure_current_idle_ns", timeNS(cal, each, pub.EnsureCurrent))
	names := &nameGen{rng: in.rng, used: map[string]bool{}}
	id, _ := class.MethodIDByName(in.methods[1])
	var armed []float64
	start := time.Now()
	for deadline := start.Add(each); time.Now().Before(deadline) || len(armed) < 5; {
		cal.tick()
		must(class.RenameMethod(id, names.next()))
		t0 := time.Now()
		pub.EnsureCurrent()
		armed = append(armed, float64(time.Since(t0))/float64(time.Microsecond))
	}
	res.set("core.ensure_current_armed_us", median(armed)/cal.factor(start, time.Now()))
	return nil
}

// recoverCommits is the WAL length ifsvr.open_recover_ms recovers.
const recoverCommits = 2000
