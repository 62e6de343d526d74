package core

import (
	"sync"
	"testing"
	"time"

	"livedev/internal/clock"
	"livedev/internal/dyn"
)

// recordingPub is a PublishFunc that records descriptors and can block to
// simulate the paper's "relatively expensive" generation operation.
type recordingPub struct {
	mu        sync.Mutex
	published []dyn.InterfaceDescriptor

	// When blocking, each publish call sends on started and then waits on
	// release before returning.
	blocking bool
	started  chan struct{}
	release  chan struct{}
}

func newRecordingPub(blocking bool) *recordingPub {
	return &recordingPub{
		blocking: blocking,
		started:  make(chan struct{}, 16),
		release:  make(chan struct{}),
	}
}

func (r *recordingPub) fn(desc dyn.InterfaceDescriptor) error {
	if r.blocking {
		r.started <- struct{}{}
		<-r.release
	}
	r.mu.Lock()
	r.published = append(r.published, desc)
	r.mu.Unlock()
	return nil
}

func (r *recordingPub) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.published)
}

func (r *recordingPub) last() dyn.InterfaceDescriptor {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.published[len(r.published)-1]
}

func newTestClass(t *testing.T) (*dyn.Class, dyn.MemberID) {
	t.Helper()
	c := dyn.NewClass("Svc")
	id, err := c.AddMethod(dyn.MethodSpec{
		Name:        "ping",
		Result:      dyn.StringT,
		Distributed: true,
		Body:        func(*dyn.Instance, []dyn.Value) (dyn.Value, error) { return dyn.StringValue("pong"), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, id
}

const testTimeout = 100 * time.Millisecond

func TestStableTimeoutPublishesAfterQuietPeriod(t *testing.T) {
	c, _ := newTestClass(t)
	clk := clock.NewFake()
	rec := newRecordingPub(false)
	p := NewDLPublisher(c, testTimeout, clk, rec.fn)
	defer p.Close()

	if _, err := c.AddMethod(dyn.MethodSpec{Name: "extra", Distributed: true}); err != nil {
		t.Fatal(err)
	}
	if rec.count() != 0 {
		t.Fatal("must not publish before the stability timeout")
	}
	clk.Advance(testTimeout)
	p.WaitIdle()
	if rec.count() != 1 {
		t.Fatalf("published %d times, want 1", rec.count())
	}
	if _, ok := rec.last().Lookup("extra"); !ok {
		t.Error("published descriptor should include the new method")
	}
	if got := p.Stats(); got.Published != 1 || got.TimerArms != 1 {
		t.Errorf("stats = %+v", got)
	}
}

func TestEditBurstPublishesOnce(t *testing.T) {
	// Section 5.6: transient interfaces (mid-edit) must not be published;
	// each change resets the timer.
	c, id := newTestClass(t)
	clk := clock.NewFake()
	rec := newRecordingPub(false)
	p := NewDLPublisher(c, testTimeout, clk, rec.fn)
	defer p.Close()

	names := []string{"a", "b", "c", "d", "final"}
	for _, n := range names {
		if err := c.RenameMethod(id, n); err != nil {
			t.Fatal(err)
		}
		clk.Advance(testTimeout / 2) // keep editing inside the window
	}
	if rec.count() != 0 {
		t.Fatalf("published %d transient interfaces", rec.count())
	}
	clk.Advance(testTimeout)
	p.WaitIdle()
	if rec.count() != 1 {
		t.Fatalf("published %d times, want 1", rec.count())
	}
	if _, ok := rec.last().Lookup("final"); !ok {
		t.Error("only the settled interface should be published")
	}
	if got := p.Stats(); got.TimerArms != uint64(len(names)) {
		t.Errorf("TimerArms = %d, want %d", got.TimerArms, len(names))
	}
}

func TestBodyEditsDoNotArmTimer(t *testing.T) {
	c, id := newTestClass(t)
	clk := clock.NewFake()
	rec := newRecordingPub(false)
	p := NewDLPublisher(c, testTimeout, clk, rec.fn)
	defer p.Close()

	if err := c.SetBody(id, func(*dyn.Instance, []dyn.Value) (dyn.Value, error) {
		return dyn.StringValue("pong2"), nil
	}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * testTimeout)
	p.WaitIdle()
	if rec.count() != 0 {
		t.Error("implementation-only edits must not publish")
	}
	if p.Stats().TimerArms != 0 {
		t.Error("implementation-only edits must not arm the timer")
	}
}

func TestTimerExpiryDuringGenerationQueuesOneMore(t *testing.T) {
	// Section 5.6: "if the timer expires before the completion of the IDL
	// generation operation, then another IDL generation operation will
	// take place as soon as the current operation finishes."
	c, id := newTestClass(t)
	clk := clock.NewFake()
	rec := newRecordingPub(true)
	p := NewDLPublisher(c, testTimeout, clk, rec.fn)
	defer p.Close()

	if err := c.RenameMethod(id, "v1"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(testTimeout) // generation 1 starts and blocks
	<-rec.started

	// Edit while generating; its timer expires during the generation.
	if err := c.RenameMethod(id, "v2"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(testTimeout)

	rec.release <- struct{}{} // finish generation 1 (publishes v1)
	<-rec.started             // queued generation 2 starts immediately
	rec.release <- struct{}{} // finish generation 2 (publishes v2)
	p.WaitIdle()

	if rec.count() != 2 {
		t.Fatalf("published %d times, want 2", rec.count())
	}
	if _, ok := rec.last().Lookup("v2"); !ok {
		t.Error("second generation must capture the newest interface")
	}
}

func TestEnsureCurrentIdleAndCurrentIsNoop(t *testing.T) {
	c, _ := newTestClass(t)
	clk := clock.NewFake()
	rec := newRecordingPub(false)
	p := NewDLPublisher(c, testTimeout, clk, rec.fn)
	defer p.Close()

	p.PublishNow()
	p.WaitIdle()
	n := rec.count()

	p.EnsureCurrent() // idle + current: must not generate
	if rec.count() != n {
		t.Error("EnsureCurrent on a current publisher must not publish")
	}
	if got := p.Stats(); got.ForcedNoop != 1 || got.Forced != 0 {
		t.Errorf("stats = %+v", got)
	}
}

func TestEnsureCurrentWithTimerArmedForcesExpiry(t *testing.T) {
	c, id := newTestClass(t)
	clk := clock.NewFake()
	rec := newRecordingPub(false)
	p := NewDLPublisher(c, testTimeout, clk, rec.fn)
	defer p.Close()

	if err := c.RenameMethod(id, "renamed"); err != nil {
		t.Fatal(err)
	}
	// Timer armed, no generation. EnsureCurrent must not wait out the
	// timeout — it forces expiry (note: we never advance the fake clock).
	p.EnsureCurrent()
	if rec.count() != 1 {
		t.Fatalf("published %d times, want 1", rec.count())
	}
	if _, ok := rec.last().Lookup("renamed"); !ok {
		t.Error("forced publication must carry the latest interface")
	}
	if p.Stats().Forced != 1 {
		t.Errorf("stats = %+v", p.Stats())
	}
}

func TestEnsureCurrentDuringGenerationWaits(t *testing.T) {
	c, id := newTestClass(t)
	clk := clock.NewFake()
	rec := newRecordingPub(true)
	p := NewDLPublisher(c, testTimeout, clk, rec.fn)
	defer p.Close()

	if err := c.RenameMethod(id, "v1"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(testTimeout)
	<-rec.started // generation in progress, timer idle

	done := make(chan struct{})
	go func() {
		p.EnsureCurrent()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("EnsureCurrent returned while generation was still running")
	case <-time.After(20 * time.Millisecond):
	}
	rec.release <- struct{}{}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("EnsureCurrent did not return after generation completed")
	}
	if rec.count() != 1 {
		t.Errorf("published %d times", rec.count())
	}
}

func TestEnsureCurrentGenerationPlusTimerWaitsForTwo(t *testing.T) {
	// The fourth Section 5.7 case: a generation is running AND the timer
	// is armed (an edit arrived mid-generation). EnsureCurrent must wait
	// for the running generation and one more.
	c, id := newTestClass(t)
	clk := clock.NewFake()
	rec := newRecordingPub(true)
	p := NewDLPublisher(c, testTimeout, clk, rec.fn)
	defer p.Close()

	if err := c.RenameMethod(id, "v1"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(testTimeout)
	<-rec.started // generation 1 running
	if err := c.RenameMethod(id, "v2"); err != nil {
		t.Fatal(err) // timer armed again
	}

	done := make(chan struct{})
	go func() {
		p.EnsureCurrent()
		close(done)
	}()

	rec.release <- struct{}{} // generation 1 completes (v1)
	select {
	case <-done:
		t.Fatal("EnsureCurrent returned after only the stale generation")
	case <-time.After(20 * time.Millisecond):
	}
	<-rec.started             // queued generation 2 starts
	rec.release <- struct{}{} // generation 2 completes (v2)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("EnsureCurrent did not return after the second generation")
	}
	if rec.count() != 2 {
		t.Fatalf("published %d times, want 2", rec.count())
	}
	if _, ok := rec.last().Lookup("v2"); !ok {
		t.Error("EnsureCurrent must leave the newest interface published")
	}
}

func TestEnsureCurrentRepairsIdleStale(t *testing.T) {
	// Defensive case: publisher idle but never published (fresh publisher,
	// non-empty class). EnsureCurrent must repair.
	c, _ := newTestClass(t)
	clk := clock.NewFake()
	rec := newRecordingPub(false)
	p := NewDLPublisher(c, testTimeout, clk, rec.fn)
	defer p.Close()

	p.EnsureCurrent()
	if rec.count() != 1 {
		t.Fatalf("published %d times, want 1", rec.count())
	}
}

func TestGenerationSkipsWhenInterfaceUnchanged(t *testing.T) {
	c, id := newTestClass(t)
	clk := clock.NewFake()
	rec := newRecordingPub(false)
	p := NewDLPublisher(c, testTimeout, clk, rec.fn)
	defer p.Close()

	p.PublishNow()
	p.WaitIdle()
	if rec.count() != 1 {
		t.Fatal("initial publish")
	}

	// Rename away and back within one stability window: the settled
	// interface equals the published one, so generation happens but the
	// document is not republished.
	if err := c.RenameMethod(id, "temp"); err != nil {
		t.Fatal(err)
	}
	if err := c.RenameMethod(id, "ping"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(testTimeout)
	p.WaitIdle()
	if rec.count() != 1 {
		t.Errorf("republished an unchanged interface (%d publishes)", rec.count())
	}
	if got := p.Stats(); got.SkippedCurrent != 1 {
		t.Errorf("stats = %+v", got)
	}
}

func TestPublishNowWhileGeneratingQueues(t *testing.T) {
	c, id := newTestClass(t)
	clk := clock.NewFake()
	rec := newRecordingPub(true)
	p := NewDLPublisher(c, testTimeout, clk, rec.fn)
	defer p.Close()

	if err := c.RenameMethod(id, "v1"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(testTimeout)
	<-rec.started
	if err := c.RenameMethod(id, "v2"); err != nil {
		t.Fatal(err)
	}
	p.PublishNow()            // queues a follow-up
	rec.release <- struct{}{} // finish gen 1
	<-rec.started             // queued gen starts
	rec.release <- struct{}{} // finish gen 2
	p.WaitIdle()
	if rec.count() != 2 {
		t.Errorf("published %d times, want 2", rec.count())
	}
}

func TestCloseDetachesFromClass(t *testing.T) {
	c, id := newTestClass(t)
	clk := clock.NewFake()
	rec := newRecordingPub(false)
	p := NewDLPublisher(c, testTimeout, clk, rec.fn)

	p.Close()
	p.Close() // idempotent
	if err := c.RenameMethod(id, "afterclose"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * testTimeout)
	if rec.count() != 0 {
		t.Error("closed publisher must not publish")
	}
	// EnsureCurrent and PublishNow are no-ops after close.
	p.EnsureCurrent()
	p.PublishNow()
	if rec.count() != 0 {
		t.Error("closed publisher acted on EnsureCurrent/PublishNow")
	}
}

func TestRogueClientNoAmplification(t *testing.T) {
	// Section 5.7: "this algorithm prevents a rogue client from
	// overwhelming the server by sending multiple calls to non-existent
	// methods that trigger IDL generation needlessly." After the first
	// forced publication, repeated EnsureCurrent calls are no-ops.
	c, _ := newTestClass(t)
	clk := clock.NewFake()
	rec := newRecordingPub(false)
	p := NewDLPublisher(c, testTimeout, clk, rec.fn)
	defer p.Close()
	p.PublishNow()
	p.WaitIdle()
	base := rec.count()

	for i := 0; i < 1000; i++ {
		p.EnsureCurrent()
	}
	if rec.count() != base {
		t.Errorf("rogue EnsureCurrent storm caused %d extra publications", rec.count()-base)
	}
	st := p.Stats()
	if st.ForcedNoop != 1000 {
		t.Errorf("ForcedNoop = %d", st.ForcedNoop)
	}
	if st.Generations != uint64(base) {
		t.Errorf("Generations = %d, want %d", st.Generations, base)
	}
}

func TestConcurrentEnsureCurrentUnderEdits(t *testing.T) {
	// Stress: editors and forced publications race; afterwards the
	// published interface must be current.
	c, id := newTestClass(t)
	rec := newRecordingPub(false)
	// Real clock with a tiny timeout so expiry happens organically.
	p := NewDLPublisher(c, time.Millisecond, clock.Real{}, rec.fn)
	defer p.Close()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p.EnsureCurrent()
			}
		}()
	}
	for i := 0; i < 50; i++ {
		name := "m" + string(rune('a'+i%26))
		_ = c.RenameMethod(id, name)
	}
	wg.Wait()
	p.EnsureCurrent()
	if rec.count() == 0 {
		t.Fatal("nothing published")
	}
	if rec.last().Hash() != c.Interface().Hash() {
		t.Error("published interface is stale after EnsureCurrent")
	}
}
