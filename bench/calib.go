package main

import (
	"sort"
	"syscall"
	"time"
)

// Speed calibration. The sandbox this repository is measured on does not
// run at one speed. Its core clock steps between about 2.7 and 3.4 GHz for
// seconds to minutes at a time; the cost of entering and leaving the kernel
// drifts on top of that; and neighbours on the same host take cache and
// memory bandwidth away in spells of a few seconds. A chain of dependent
// multiply-adds that touches no memory takes 23 µs at one moment and 31 µs
// a little later; a bare loopback ping-pong moves 30 % with it, and every
// latency here — all of it CPU work, since traffic never leaves loopback —
// follows (README.md, "Steadiness"). No statistic over a ten-second window
// removes a step that outlasts the window, so the speed of the machine is
// measured instead: the load generator interleaves a fixed reference
// workload with its operations every few milliseconds — a third user-mode
// arithmetic, a third trivial system calls, a third a walk over a buffer
// larger than the first-level cache: the three things a loopback call is
// made of — and each reported time is scaled by how long the reference took
// around it relative to its nominal duration. The server child is pinned to
// the same CPU, so one calibration covers both sides. Reported µs are
// therefore microseconds at the nominal speed; the factor is printed with
// every run so the wall-clock value can be recovered.

const (
	// spinSteps, spinCalls and spinLines size the reference workload: a
	// chain of dependent multiply-adds, a run of getppid calls, and a
	// read-modify-write of one word per cache line of a 320 KB buffer —
	// each about a third of nominalSpin.
	spinSteps = 10000
	spinCalls = 120
	spinLines = 5120
	// nominalSpin is the reference workload's duration at the nominal
	// speed: what it takes on this sandbox in its faster, quieter state.
	nominalSpin = 37500 * time.Nanosecond
	// spinEvery is how often a closed loop calibrates: often enough to see
	// every step of the machine, seldom enough to cost about two per cent.
	spinEvery = 2 * time.Millisecond
)

// spinSink keeps the arithmetic's result alive so the loops are not
// removed; spinBuf is the buffer walked.
var (
	spinSink uint64
	spinBuf  = make([]uint64, spinLines*8)
)

func spin() time.Duration {
	t0 := time.Now()
	x := spinSink | 1
	for i := 0; i < spinSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	for i := 0; i < spinCalls; i++ {
		syscall.Getppid()
	}
	for i := 0; i < len(spinBuf); i += 8 {
		x += spinBuf[i]
		spinBuf[i] = x
	}
	spinSink = x
	return time.Since(t0)
}

// calib is the record of calibration samples of one session. It is used
// from one goroutine at a time.
type calib struct {
	at   []time.Time
	took []time.Duration
}

// tick takes one sample.
func (c *calib) tick() {
	d := spin()
	c.at = append(c.at, time.Now())
	c.took = append(c.took, d)
}

// ticks takes n samples back to back, bracketing work too short or too
// opaque to interleave with.
func (c *calib) ticks(n int) {
	for i := 0; i < n; i++ {
		c.tick()
	}
}

// factor is the machine's slowness between from and to: the median sample
// in that interval over the nominal duration (1 when there is none). The
// median discards samples an interrupt landed in.
func (c *calib) factor(from, to time.Time) float64 {
	lo := sort.Search(len(c.at), func(i int) bool { return !c.at[i].Before(from) })
	hi := sort.Search(len(c.at), func(i int) bool { return c.at[i].After(to) })
	if hi <= lo {
		return 1
	}
	return median(durationsUS(c.took[lo:hi])) / (float64(nominalSpin) / float64(time.Microsecond))
}
