// Package clock abstracts timer creation so the SDE publisher's
// stable-timeout algorithm (paper Section 5.6) can be driven
// deterministically in tests. The real implementation wraps
// time.AfterFunc; the fake implementation fires timers only when the test
// advances virtual time.
package clock

import (
	"sort"
	"sync"
	"time"
)

// Timer is a cancellable pending timer.
type Timer interface {
	// Stop cancels the timer; it reports whether the timer was stopped
	// before firing.
	Stop() bool
}

// Clock creates timers.
type Clock interface {
	// AfterFunc runs f on its own goroutine after d elapses.
	AfterFunc(d time.Duration, f func()) Timer
	// Now returns the current (possibly virtual) time.
	Now() time.Time
}

// Real is the wall-clock implementation.
type Real struct{}

var _ Clock = Real{}

// AfterFunc wraps time.AfterFunc.
func (Real) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// Now wraps time.Now.
func (Real) Now() time.Time { return time.Now() }

// Fake is a virtual clock for tests: timers fire, synchronously, when
// Advance moves virtual time past their deadline. The zero value is ready
// to use and starts at the zero time.
type Fake struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer
	seq    int
}

var _ Clock = (*Fake)(nil)

type fakeTimer struct {
	clk      *Fake
	deadline time.Time
	seq      int // tie-break for deterministic firing order
	f        func()
	stopped  bool
	fired    bool
}

// Stop implements Timer.
func (t *fakeTimer) Stop() bool {
	t.clk.mu.Lock()
	defer t.clk.mu.Unlock()
	if t.fired || t.stopped {
		return false
	}
	t.stopped = true
	return true
}

// NewFake returns a fake clock starting at a fixed epoch.
func NewFake() *Fake {
	return &Fake{now: time.Date(2004, 12, 1, 0, 0, 0, 0, time.UTC)}
}

// AfterFunc implements Clock.
func (c *Fake) AfterFunc(d time.Duration, f func()) Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &fakeTimer{clk: c, deadline: c.now.Add(d), seq: c.seq, f: f}
	c.seq++
	c.timers = append(c.timers, t)
	return t
}

// Now implements Clock.
func (c *Fake) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves virtual time forward, firing due timers in deadline order.
// Timer callbacks run synchronously on the calling goroutine, without the
// clock lock held, so they may create new timers (which fire too if due).
func (c *Fake) Advance(d time.Duration) {
	c.mu.Lock()
	target := c.now.Add(d)
	for {
		var next *fakeTimer
		for _, t := range c.timers {
			if t.stopped || t.fired || t.deadline.After(target) {
				continue
			}
			if next == nil || t.deadline.Before(next.deadline) ||
				(t.deadline.Equal(next.deadline) && t.seq < next.seq) {
				next = t
			}
		}
		if next == nil {
			break
		}
		next.fired = true
		if next.deadline.After(c.now) {
			c.now = next.deadline
		}
		f := next.f
		c.mu.Unlock()
		f()
		c.mu.Lock()
	}
	c.now = target
	// Compact fired/stopped timers.
	live := c.timers[:0]
	for _, t := range c.timers {
		if !t.fired && !t.stopped {
			live = append(live, t)
		}
	}
	c.timers = live
	c.mu.Unlock()
}

// PendingCount returns the number of armed timers (for assertions).
func (c *Fake) PendingCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, t := range c.timers {
		if !t.fired && !t.stopped {
			n++
		}
	}
	return n
}

// Deadlines returns the pending timer deadlines, soonest first.
func (c *Fake) Deadlines() []time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ds []time.Time
	for _, t := range c.timers {
		if !t.fired && !t.stopped {
			ds = append(ds, t.deadline)
		}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].Before(ds[j]) })
	return ds
}
