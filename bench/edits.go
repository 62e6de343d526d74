package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"livedev"
	"livedev/internal/ifsvr"
)

// rxEvent is one delivery as a receiver saw it: the store epoch of the
// committed version, when the receiver's own callback observed it (no
// polling loop stands between the wire and this stamp), and a hash of the
// payload bytes.
type rxEvent struct {
	epoch uint64
	at    time.Time
	hash  uint64
}

// receiverKind says how a receiver reads its stream.
type receiverKind int

const (
	// rawRx reads SSE frames with the minimal reader below: the event id
	// and a hash of the data line, no JSON decode. The bulk of the held
	// connections are these, so the single-processor load generator spends
	// its time receiving, not decoding, and the last-of-W latency stays a
	// property of the server.
	rawRx receiverKind = iota
	// streamRx is ifsvr.WatchStream, the repo's own stream client; it
	// decodes every event and so also witnesses versions and content.
	streamRx
	// clientRx is a full livedev.Dial(WithWatch()) client; its stamp is
	// taken in a view listener, after the new interface is installed.
	clientRx
)

// receiver is one held watch. Its events are appended only by its own
// goroutine and read only after fanout.close has joined it.
type receiver struct {
	kind     receiverKind
	binding  int
	follower bool
	events   []rxEvent
	// streamRx only: the version of every event and the last content.
	versions    []uint64
	lastContent string
	// rawRx only: the last data line, kept so it can be compared with a
	// plain GET once the run is over.
	lastData []byte
	err      error
}

// fanout is the held watcher population of the edit path.
type fanout struct {
	ctx       context.Context
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	hc        *http.Client
	seed      maphash.Seed
	receivers []*receiver
	clients   []*livedev.Client
	delivered atomic.Int64
	ready     chan struct{}
	// leaderRx and followerRx count receivers per binding.
	leaderRx, followerRx []int
	closed               bool
}

func newFanout() *fanout {
	ctx, cancel := context.WithCancel(context.Background())
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 1024
	return &fanout{
		ctx: ctx, cancel: cancel, seed: maphash.MakeSeed(),
		hc:         &http.Client{Transport: tr},
		ready:      make(chan struct{}, 4096),
		leaderRx:   make([]int, len(bindings)),
		followerRx: make([]int, len(bindings)),
	}
}

// close ends every held watch and waits for its goroutine, after which
// the receivers' logs may be read.
func (f *fanout) close() {
	if f.closed {
		return
	}
	f.closed = true
	f.cancel()
	for _, c := range f.clients {
		_ = c.Close()
	}
	f.wg.Wait()
	f.hc.CloseIdleConnections()
}

func (f *fanout) note(r *receiver, ev rxEvent) {
	if len(r.events) == 0 && r.kind != clientRx {
		f.ready <- struct{}{}
	}
	r.events = append(r.events, ev)
	f.delivered.Add(1)
}

func (f *fanout) register(r *receiver) {
	f.receivers = append(f.receivers, r)
	if r.follower {
		f.followerRx[r.binding]++
	} else {
		f.leaderRx[r.binding]++
	}
}

// add connects one raw or stream receiver to url just below the
// document's current epoch, so the current version is replayed at once:
// that first event proves the stream live and is ignored by the analysis.
func (f *fanout) add(kind receiverKind, b int, url string, after uint64, follower bool) {
	r := &receiver{kind: kind, binding: b, follower: follower}
	f.register(r)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		if kind == rawRx {
			r.err = f.readRaw(r, url, after)
			return
		}
		r.err = ifsvr.WatchStream(f.ctx, f.hc, url, after, func(ev ifsvr.StreamEvent) {
			r.versions = append(r.versions, ev.Doc.Version)
			r.lastContent = ev.Doc.Content
			f.note(r, rxEvent{epoch: ev.Doc.Epoch, at: time.Now()})
		})
		if f.ctx.Err() != nil {
			r.err = nil // ended by close, not by the server
		}
	}()
}

// addClient dials one full watch client. No connect-time replay reaches
// its view listener; the first edits prove its watch live instead.
func (f *fanout) addClient(b int, url string) error {
	c, err := livedev.Dial(f.ctx, url, livedev.WithWatch())
	if err != nil {
		return fmt.Errorf("bench: dialing watch client for %s: %w", bindings[b].tech, err)
	}
	f.clients = append(f.clients, c)
	r := &receiver{kind: clientRx, binding: b}
	f.register(r)
	// The listener runs on the client's single watcher goroutine.
	c.AddViewListener(func() {
		f.note(r, rxEvent{epoch: c.Versions().Epoch, at: time.Now()})
	})
	return nil
}

// readRaw is the minimal SSE reader: it keeps the last "id:" value and
// hashes the "data:" line, stamping the event when its blank line
// arrives. Lines longer than the buffer arrive in fragments, which is why
// the hash is streamed.
func (f *fanout) readRaw(r *receiver, url string, after uint64) error {
	req, err := http.NewRequestWithContext(f.ctx, http.MethodGet,
		url+"?watch=stream&after="+strconv.FormatUint(after, 10), nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", ifsvr.StreamContentType)
	resp, err := f.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("bench: %s answered HTTP %d", url, resp.StatusCode)
	}
	br := bufio.NewReaderSize(resp.Body, 32<<10)
	var h maphash.Hash
	h.SetSeed(f.seed)
	var epoch uint64
	var hasData, inData, lineStart = false, false, true
	var data []byte
	for {
		frag, err := br.ReadSlice('\n')
		if err != nil && !errors.Is(err, bufio.ErrBufferFull) {
			if f.ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("bench: stream %s broke: %w", url, err)
		}
		complete := err == nil
		if lineStart {
			inData = false
			switch {
			case len(frag) == 1 && complete: // blank line: dispatch
				if hasData {
					f.note(r, rxEvent{epoch: epoch, at: time.Now(), hash: h.Sum64()})
					r.lastData, data = data, r.lastData
				}
				hasData = false
				h.Reset()
				data = data[:0]
			case bytes.HasPrefix(frag, []byte("id: ")):
				epoch, _ = strconv.ParseUint(string(bytes.TrimSpace(frag[4:])), 10, 64)
			case bytes.HasPrefix(frag, []byte("data: ")):
				inData, hasData = true, true
				frag = frag[6:]
			}
		}
		if inData {
			body := frag
			if complete {
				body = frag[:len(frag)-1]
			}
			_, _ = h.Write(body)
			data = append(data, body...)
		}
		lineStart = complete
	}
}

// awaitReady waits until n receivers have seen their first event.
func (f *fanout) awaitReady(n int) error {
	timeout := time.After(30 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case <-f.ready:
		case <-timeout:
			return fmt.Errorf("bench: only %d of %d watchers connected", i, n)
		}
	}
	return nil
}

// awaitDelivered waits, outside any timed interval, until the delivery
// count reaches want or patience runs out.
func (f *fanout) awaitDelivered(want int64, patience time.Duration) bool {
	deadline := time.Now().Add(patience)
	for f.delivered.Load() < want {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// fanSpec is how many receivers of each kind to add per document.
type fanSpec struct {
	raw            int
	stream, client bool
	followerRaw    int
}

// population is the edit_fanout shape: per document, perDoc leader-side
// watchers (perDoc-2 raw, one ifsvr.WatchStream, one full watch client)
// and, when the cluster has a follower, one raw watcher on it.
func population(s *session, perDoc int) fanSpec {
	spec := fanSpec{raw: perDoc - 2, stream: true, client: true}
	if s.cl.follower != nil {
		spec.followerRaw = 1
	}
	return spec
}

// connect adds spec's receivers to every document and waits until each has
// proved its stream live.
func (f *fanout) connect(s *session, spec fanSpec) error {
	h := s.cl.server.hello
	n := 0
	for b, bd := range bindings {
		bh := h.Bindings[bd.tech]
		doc, err := ifsvr.FetchContext(f.ctx, f.hc, bh.Doc)
		if err != nil {
			return fmt.Errorf("bench: fetching %s: %w", bh.Doc, err)
		}
		after := doc.Epoch - 1
		if spec.followerRaw > 0 {
			if err := awaitDocVersion(f.ctx, f.hc, s.cl.follower.hello.Iface+bh.DocPath, doc.Version); err != nil {
				return err
			}
		}
		for i := 0; i < spec.followerRaw; i++ {
			f.add(rawRx, b, s.cl.follower.hello.Iface+bh.DocPath, after, true)
			n++
		}
		for i := 0; i < spec.raw; i++ {
			f.add(rawRx, b, bh.Doc, after, false)
			n++
		}
		if spec.stream {
			f.add(streamRx, b, bh.Doc, after, false)
			n++
		}
		if spec.client {
			if err := f.addClient(b, bh.Doc); err != nil {
				return err
			}
		}
	}
	return f.awaitReady(n)
}

// awaitDocVersion polls url until it serves at least version v (a
// follower bootstrapping), outside any timed interval.
func awaitDocVersion(ctx context.Context, hc *http.Client, url string, v uint64) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		doc, err := ifsvr.FetchContext(ctx, hc, url)
		if err == nil && doc.Version >= v {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: %s never reached version %d (last error: %v)", url, v, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// edit is one issued rename and what became of it.
type edit struct {
	step  editStep
	due   time.Time
	late  time.Duration
	ack   ack
	acked bool
}

// issueEdits runs the open loop: n renames at rate per second, each sent
// at its due time whether or not earlier ones were acknowledged, their
// acks collected concurrently. It returns once every ack is in.
func issueEdits(s *session, n, rate int) ([]edit, error) {
	edits := make([]edit, n)
	ol := openLoop{start: time.Now().Add(2 * time.Millisecond), interval: time.Second / time.Duration(rate)}
	ackErr := make(chan error, 1)
	go func() {
		for i := range edits {
			a, err := s.cl.server.recvAck()
			if err != nil {
				ackErr <- fmt.Errorf("bench: edit %d: %w", i, err)
				return
			}
			edits[i].ack, edits[i].acked = a, true
		}
		ackErr <- nil
	}()
	for i := range edits {
		e := &edits[i]
		e.step = s.plan.next()
		// Applied before the ack: the loop is open, so a later edit may
		// rename the same slot while this one is in flight. A refused edit
		// ends the run with an error instead.
		old := s.plan.apply(e.step)
		e.due = ol.due(i)
		// The wait for the due time is where the generator calibrates the
		// clock: a sample every few milliseconds, none in the last one.
		for wait := time.Until(e.due); wait > 0; wait = time.Until(e.due) {
			if wait > 2*calibratePause {
				time.Sleep(calibratePause)
				s.cal.tick()
				continue
			}
			time.Sleep(wait)
		}
		e.late = ol.lateness(i, time.Now())
		cmd := fmt.Sprintf("edit %s %s %s", bindings[e.step.binding].tech, old, e.step.newName)
		if err := s.cl.server.send(cmd); err != nil {
			return nil, err
		}
	}
	if err := <-ackErr; err != nil {
		return nil, err
	}
	return edits, nil
}

// calibratePause spaces the open loop's calibration samples.
const calibratePause = 5 * time.Millisecond

// expectedDeliveries is how many receiver events the acked edits owe.
func (f *fanout) expectedDeliveries(edits []edit) int64 {
	var n int64
	for _, e := range edits {
		n += int64(f.leaderRx[e.step.binding] + f.followerRx[e.step.binding])
	}
	return n
}

// warmupEdits is the number of discarded renames per document at set-up.
const warmupEdits = 2

// warmUpEdits proves the held watches of s.fan live: warmupEdits renames
// per document, one at a time, each delivered to every watcher before the
// next is sent, so that set-up time is the work they cause and not the
// pacing of the measured loop.
func warmUpEdits(s *session) error {
	f := s.fan
	for i := 0; i < warmupEdits*len(bindings); i++ {
		before := f.delivered.Load()
		edits, err := issueEdits(s, 1, editRate)
		if err != nil {
			return err
		}
		if !f.awaitDelivered(before+f.expectedDeliveries(edits), 10*time.Second) {
			e := edits[0]
			return fmt.Errorf("bench: warm-up edit %d (%s epoch %d) was not delivered to every watcher",
				i, bindings[e.step.binding].tech, e.ack.Epoch)
		}
	}
	return nil
}

// setupEdits spawns nothing itself (the cluster has the follower): it
// connects the watcher population and proves it live with a few edits.
func setupEdits(s *session, _ workload) error {
	s.fan = newFanout()
	if err := s.fan.connect(s, population(s, s.opt.watchers()/len(bindings))); err != nil {
		return err
	}
	return warmUpEdits(s)
}

// visibility is the analysed outcome of a set of edits.
type visibility struct {
	// leaderUS[b] and followerUS[b] hold, per edit of binding b that
	// reached every receiver, due-time → last receiver, in µs; round[b]
	// holds the matching round index.
	leaderUS, followerUS [][]float64
	round                [][]int
	// clientLagUS holds, per edit, the full client's stamp minus the
	// median raw receiver's stamp.
	clientLagUS []float64
	delivered   []int // per binding
	attempted   int
	failed      int
}

// analyse joins the receivers' logs with the acked edits, given how many
// receivers each document had while they were issued. It must run after
// close. Every correctness rule of the edit path is checked here:
// each receiver saw each committed version exactly once, in epoch order,
// with payload bytes identical across receivers.
func (f *fanout) analyse(res *result, cal *calib, edits []edit, leaderRx, followerRx []int) visibility {
	start := edits[0].due
	nb := len(bindings)
	v := visibility{leaderUS: make([][]float64, nb), followerUS: make([][]float64, nb),
		round: make([][]int, nb), delivered: make([]int, nb)}
	type key struct {
		b     int
		epoch uint64
	}
	type agg struct {
		leaderN, followerN     int
		leaderMax, followerMax time.Time
		hash                   uint64
		hashSet                bool
		rawAts                 []time.Time
		clientAt               time.Time
		hashMismatch           bool
	}
	byKey := make(map[key]*agg)
	for _, e := range edits {
		if e.acked {
			byKey[key{e.step.binding, e.ack.Epoch}] = &agg{}
		}
	}
	for _, r := range f.receivers {
		if r.err != nil {
			res.fail("%s watcher stream failed: %v", bindings[r.binding].tech, r.err)
		}
		var last uint64
		for i, ev := range r.events {
			if ev.epoch <= last {
				res.fail("%s watcher saw epoch %d after %d", bindings[r.binding].tech, ev.epoch, last)
			}
			last = ev.epoch
			a := byKey[key{r.binding, ev.epoch}]
			if a == nil || (i == 0 && r.kind != clientRx) {
				continue // warm-up, another phase, or the connect-time replay
			}
			if r.follower {
				a.followerN++
				if ev.at.After(a.followerMax) {
					a.followerMax = ev.at
				}
				continue
			}
			a.leaderN++
			if ev.at.After(a.leaderMax) {
				a.leaderMax = ev.at
			}
			switch r.kind {
			case rawRx:
				a.rawAts = append(a.rawAts, ev.at)
				if a.hashSet && a.hash != ev.hash {
					a.hashMismatch = true
				}
				a.hash, a.hashSet = ev.hash, true
			case clientRx:
				a.clientAt = ev.at
			}
		}
		if r.kind == streamRx {
			for i := 1; i < len(r.versions); i++ {
				if r.versions[i] != r.versions[i-1]+1 {
					res.fail("%s stream watcher saw version %d after %d", bindings[r.binding].tech, r.versions[i], r.versions[i-1])
				}
			}
		}
	}
	for _, e := range edits {
		b := e.step.binding
		want := leaderRx[b] + followerRx[b]
		v.attempted += want
		if !e.acked {
			v.failed += want
			continue
		}
		a := byKey[key{b, e.ack.Epoch}]
		got := a.leaderN + a.followerN
		v.failed += want - min(got, want)
		v.delivered[b] += min(got, want)
		if got > want {
			res.fail("%s epoch %d was delivered %d times to %d watchers", bindings[b].tech, e.ack.Epoch, got, want)
		}
		if a.hashMismatch {
			res.fail("%s epoch %d reached watchers with differing payload bytes", bindings[b].tech, e.ack.Epoch)
		}
		if a.leaderN != leaderRx[b] || a.followerN != followerRx[b] {
			// Counted as failed above; no latency sample.
			res.fail("%s epoch %d reached %d of %d leader watchers and %d of %d follower watchers",
				bindings[b].tech, e.ack.Epoch, a.leaderN, leaderRx[b], a.followerN, followerRx[b])
			continue
		}
		// Scale to the nominal clock by the calibration around the edit.
		factor := cal.factor(e.due.Add(-calibrateAround), e.due.Add(calibrateAround))
		us := func(t time.Time) float64 { return float64(t.Sub(e.due)) / float64(time.Microsecond) / factor }
		v.leaderUS[b] = append(v.leaderUS[b], us(a.leaderMax))
		v.round[b] = append(v.round[b], int(e.due.Sub(start)/roundLength))
		if followerRx[b] > 0 {
			v.followerUS[b] = append(v.followerUS[b], us(a.followerMax))
		}
		if !a.clientAt.IsZero() && len(a.rawAts) > 0 {
			raw := make([]float64, len(a.rawAts))
			for i, t := range a.rawAts {
				raw[i] = us(t)
			}
			v.clientLagUS = append(v.clientLagUS, us(a.clientAt)-median(raw))
		}
	}
	return v
}

// checkContent compares what the watchers last received with a plain GET
// of each document, byte for byte. It reads the receivers' logs, so it
// must run after close.
func (f *fanout) checkContent(res *result, h hello) {
	hc := &http.Client{Timeout: 10 * time.Second}
	for b, bd := range bindings {
		doc, err := ifsvr.FetchContext(context.Background(), hc, h.Bindings[bd.tech].Doc)
		if err != nil {
			res.fail("fetching %s document: %v", bd.tech, err)
			continue
		}
		checkedRaw := false
		for _, r := range f.receivers {
			if r.binding != b || r.follower {
				continue
			}
			switch {
			case r.kind == streamRx && r.lastContent != doc.Content:
				res.fail("%s stream watcher's last content differs from a plain GET", bd.tech)
			case r.kind == rawRx && !checkedRaw:
				checkedRaw = true
				var wire struct {
					Version uint64 `json:"version"`
					Content string `json:"content"`
				}
				if err := json.Unmarshal(r.lastData, &wire); err != nil || wire.Content != doc.Content || wire.Version != doc.Version {
					res.fail("%s raw watcher's last payload differs from a plain GET", bd.tech)
				}
			}
		}
	}
}

// checkStats asserts the backpressure valves never fired and no
// replication frame was rejected.
func checkStats(res *result, cl *cluster) (leader, follower ifsvr.StoreStats) {
	hc := &http.Client{Timeout: 10 * time.Second}
	leader, err := storeStats(hc, cl.server.hello.Iface)
	if err != nil {
		res.fail("leader /.stats: %v", err)
	}
	if leader.Fanout.Evictions != 0 || leader.Fanout.Resets != 0 {
		res.fail("leader evicted %d and reset %d watch streams", leader.Fanout.Evictions, leader.Fanout.Resets)
	}
	if cl.follower == nil {
		return leader, follower
	}
	follower, err = storeStats(hc, cl.follower.hello.Iface)
	if err != nil {
		res.fail("follower /.stats: %v", err)
	}
	if follower.Fanout.Evictions != 0 || follower.Fanout.Resets != 0 {
		res.fail("follower evicted %d and reset %d watch streams", follower.Fanout.Evictions, follower.Fanout.Resets)
	}
	if rs := follower.Replication; rs != nil && rs.FrameErrors != 0 {
		res.fail("follower rejected %d replication frames", rs.FrameErrors)
	}
	return leader, follower
}

// calibrateAround is how far either side of an edit's due time its clock
// calibration samples are taken from.
const calibrateAround = 100 * time.Millisecond

// perRoundP50 groups samples by round and returns each round's p50.
func perRoundP50(samples []float64, round []int) []float64 {
	groups := map[int][]float64{}
	maxRound := 0
	for i, x := range samples {
		groups[round[i]] = append(groups[round[i]], x)
		maxRound = max(maxRound, round[i])
	}
	var out []float64
	for r := 0; r <= maxRound; r++ {
		if g := groups[r]; len(g) > 0 {
			out = append(out, median(g))
		}
	}
	return out
}

// runEdits measures the edit path: an open loop of renames, each timed
// from its due time to the moment the last leader-side watcher of that
// document has observed the committed version.
func runEdits(s *session, w workload) (*result, error) {
	res := newResult(w)
	f := s.fan
	n := int(s.opt.window.Seconds() * editRate)
	before := f.delivered.Load()
	win := beginWindow(s)
	edits, err := issueEdits(s, n, editRate)
	if err != nil {
		return nil, err
	}
	f.awaitDelivered(before+f.expectedDeliveries(edits), 10*time.Second)
	win.stop()
	checkStats(res, s.cl)
	f.close()
	f.checkContent(res, s.cl.server.hello)
	v := f.analyse(res, &s.cal, edits, f.leaderRx, f.followerRx)
	res.Attempted, res.Failed = v.attempted, v.failed
	ops := 0
	for b, bd := range bindings {
		p50 := summarizeRounds(perRoundP50(v.leaderUS[b], v.round[b]), len(v.leaderUS[b]))
		p50.PerSecond = float64(v.delivered[b]) / win.elapsed.Seconds()
		res.set(bd.key+"_p50_us", p50.Median)
		res.spread[bd.key+"_p50_us"] = p50
		ops += v.delivered[b]
	}
	win.report(res, ops)
	return res, nil
}
