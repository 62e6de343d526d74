// Package core implements the paper's contribution: the Server Development
// Environment middleware. It contains the SDE Manager (Section 5), the DL
// Publisher implementing the stable-timeout publication algorithm
// (Section 5.6) and the forced-publication state machine for stale client
// calls (Section 5.7), the SOAP and CORBA call handlers arranged in the
// technology-independent class hierarchy of Figure 6, and — since the
// event-driven publication refactor — the publication Store: the versioned
// interface-document store with epoch-numbered snapshots and subscriber
// fan-out that every binding publishes through (Manager.NewClassServer) and
// the Interface Server reads from. The publication pipeline is therefore:
// class edit → DL Publisher (stable-timeout, Section 5.6) → Store (commit
// before return, epochs, fan-out) → Interface Server read view (HTTP GET +
// watch stream) → client caches (push-invalidated via the watch protocol).
package core

import (
	"sync"
	"time"

	"livedev/internal/clock"
	"livedev/internal/dyn"
)

// PublishFunc generates and publishes one interface description snapshot
// (WSDL or CORBA-IDL) to the Interface Server. It is the expensive
// operation the stable-timeout algorithm exists to ration.
type PublishFunc func(desc dyn.InterfaceDescriptor) error

// PublisherStats counts publisher activity; all fields are cumulative.
// Retrieved via DLPublisher.Stats.
type PublisherStats struct {
	// TimerArms counts timer (re)arms caused by interface-affecting edits.
	TimerArms uint64
	// Generations counts generation runs (snapshot + possible publish).
	Generations uint64
	// Published counts generations that actually published a document
	// (the interface hash differed from the published one).
	Published uint64
	// SkippedCurrent counts generations skipped because the published
	// interface was already current.
	SkippedCurrent uint64
	// Forced counts EnsureCurrent calls that had to wait for at least one
	// generation.
	Forced uint64
	// ForcedNoop counts EnsureCurrent calls satisfied immediately
	// (publisher idle and current) — the rogue-client fast path.
	ForcedNoop uint64
}

// DLPublisher is the paper's DL Publisher (Figure 6): one per managed
// server class. It listens to the class's change events, arms a timer with
// the user-configurable timeout on every interface-affecting edit, and runs
// a generation when the timer expires without further edits. Timer control
// and generation are independent: a timer expiring during a generation
// queues exactly one follow-up generation. EnsureCurrent implements the
// Section 5.7 guarantee used by the call handlers before they report "Non
// Existent Method".
type DLPublisher struct {
	class   *dyn.Class
	publish PublishFunc
	clk     clock.Clock
	timeout time.Duration

	mu            sync.Mutex
	cond          *sync.Cond
	timer         clock.Timer
	timerRunning  bool
	generating    bool
	pendingAgain  bool
	completedGens uint64
	publishedHash string
	publishedVer  uint64 // interface version of the published descriptor
	stats         PublisherStats
	closed        bool
	unsubscribe   func()
	genDone       sync.WaitGroup
}

// DefaultTimeout is the publication stability timeout used when the user
// has not configured one through the SDE Manager Interface.
const DefaultTimeout = 500 * time.Millisecond

// NewDLPublisher creates a publisher for class, delivering documents via
// publish. It subscribes to the class's change events immediately. The
// caller should invoke PublishNow once to put out the initial (minimal)
// interface description, mirroring SDE's behaviour at class load time.
func NewDLPublisher(class *dyn.Class, timeout time.Duration, clk clock.Clock, publish PublishFunc) *DLPublisher {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	if clk == nil {
		clk = clock.Real{}
	}
	p := &DLPublisher{
		class:   class,
		publish: publish,
		clk:     clk,
		timeout: timeout,
	}
	p.cond = sync.NewCond(&p.mu)
	p.unsubscribe = class.Subscribe(p.onChange)
	return p
}

// Stats returns a snapshot of the publisher counters.
func (p *DLPublisher) Stats() PublisherStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// PublishedVersion returns the interface version of the most recently
// published descriptor.
func (p *DLPublisher) PublishedVersion() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.publishedVer
}

// onChange is the class listener: every interface-affecting edit (re)arms
// the stability timer (Section 5.6: "When a change to the relevant server
// class is detected, the DL Publisher sets a timer to the timeout value...
// If changes are made before the timer expires, the timer is reset").
func (p *DLPublisher) onChange(ev dyn.ChangeEvent) {
	if !ev.InterfaceAffecting {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.armTimerLocked()
	p.stats.TimerArms++
}

func (p *DLPublisher) armTimerLocked() {
	if p.timer != nil {
		p.timer.Stop()
	}
	p.timerRunning = true
	p.timer = p.clk.AfterFunc(p.timeout, p.onTimerExpired)
}

func (p *DLPublisher) stopTimerLocked() {
	if p.timer != nil {
		p.timer.Stop()
		p.timer = nil
	}
	p.timerRunning = false
}

// onTimerExpired runs when the stability interval elapses with no further
// edits: start a generation, or queue one if a generation is in progress
// ("if the timer expires before the completion of the IDL generation
// operation, then another IDL generation operation will take place as soon
// as the current operation finishes", Section 5.6).
func (p *DLPublisher) onTimerExpired() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.timerRunning = false
	p.timer = nil
	p.cond.Broadcast()
	if p.closed {
		return
	}
	if p.generating {
		p.pendingAgain = true
		return
	}
	p.startGenerationLocked()
}

// startGenerationLocked launches the generation goroutine. Caller holds
// p.mu; generating must be false.
func (p *DLPublisher) startGenerationLocked() {
	p.generating = true
	p.genDone.Add(1)
	go p.runGenerations()
}

// runGenerations performs one generation, plus any follow-up queued while
// it ran, then clears the generating flag.
func (p *DLPublisher) runGenerations() {
	defer p.genDone.Done()
	for {
		desc := p.class.Interface()

		p.mu.Lock()
		current := desc.Hash() == p.publishedHash
		p.mu.Unlock()

		var publishErr error
		if !current && p.publish != nil {
			publishErr = p.publish(desc)
		}

		p.mu.Lock()
		p.stats.Generations++
		if current {
			p.stats.SkippedCurrent++
		} else if publishErr == nil {
			p.stats.Published++
			p.publishedHash = desc.Hash()
			p.publishedVer = desc.Version
		}
		p.completedGens++
		p.cond.Broadcast()
		if p.pendingAgain && !p.closed {
			p.pendingAgain = false
			p.mu.Unlock()
			continue
		}
		p.generating = false
		p.cond.Broadcast()
		p.mu.Unlock()
		return
	}
}

// PublishNow forces timer expiration (the SDE Manager Interface's manual
// trigger): any armed timer is cancelled and a generation starts (or is
// queued) immediately. It does not wait for completion.
func (p *DLPublisher) PublishNow() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.stopTimerLocked()
	if p.generating {
		p.pendingAgain = true
		return
	}
	p.startGenerationLocked()
}

// EnsureCurrent blocks until the published interface description is
// guaranteed current — the server half of the reactive-publication protocol
// run before replying "Non Existent Method" (Section 5.7). The case split
// follows the paper exactly:
//
//   - timer idle, no generation: the published description is already
//     current (every change arms the timer; the timer only clears into a
//     generation) — return immediately.
//   - timer idle, generation running: that generation's snapshot is current
//     (no edits since it started, or the timer would be armed) — wait for it.
//   - timer armed, no generation: force expiry; wait for the generation.
//   - timer armed, generation running: the running generation may predate
//     the latest edit — queue a follow-up and wait for both.
func (p *DLPublisher) EnsureCurrent() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	var target uint64
	switch {
	case p.timerRunning && p.generating:
		p.stopTimerLocked()
		p.pendingAgain = true
		target = p.completedGens + 2
		p.stats.Forced++
	case p.generating:
		target = p.completedGens + 1
		p.stats.Forced++
	case p.timerRunning:
		p.stopTimerLocked()
		p.startGenerationLocked()
		target = p.completedGens + 1
		p.stats.Forced++
	default:
		// Idle: the invariant says we are current. Double-check cheaply
		// and repair if an edit raced us (belt and braces; counted as a
		// no-op either way because publication was not needed per protocol).
		if p.publishedHash == p.class.Interface().Hash() {
			p.stats.ForcedNoop++
			p.mu.Unlock()
			return
		}
		p.startGenerationLocked()
		target = p.completedGens + 1
		p.stats.Forced++
	}
	for p.completedGens < target && !p.closed {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// WaitIdle blocks until no generation is running and no timer is armed —
// a quiescence helper for tests and examples. With a fake clock the
// caller must advance virtual time from another goroutine or beforehand,
// or the armed timer never expires and WaitIdle never returns.
func (p *DLPublisher) WaitIdle() {
	p.mu.Lock()
	for (p.generating || p.timerRunning) && !p.closed {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// Close detaches the publisher from the class, cancels any armed timer, and
// joins the generation goroutine. It does not publish.
func (p *DLPublisher) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.stopTimerLocked()
	p.cond.Broadcast()
	p.mu.Unlock()
	p.unsubscribe()
	p.genDone.Wait()
}
