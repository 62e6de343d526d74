package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the p-quantile (0..1) of sorted by linear interpolation
// between closest ranks; sorted must be ascending and non-empty.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; NaN when xs is empty, so a metric that produced no sample
// fails the finite-value check instead of reading as zero.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return quantile(sortedCopy(xs), 0.5)
}

// roundSummary is how every latency is reported: the median over rounds
// of the per-round p50, with the quartiles of those per-round values as
// the within-run spread, and the number of samples behind it. PerSecond is
// the completed operations per second that went with it (informational).
type roundSummary struct {
	Median, Q1, Q3 float64
	Rounds         int
	Samples        int
	PerSecond      float64
}

func summarizeRounds(perRound []float64, samples int) roundSummary {
	if len(perRound) == 0 {
		return roundSummary{Median: math.NaN(), Q1: math.NaN(), Q3: math.NaN()}
	}
	s := sortedCopy(perRound)
	return roundSummary{
		Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75),
		Rounds: len(s), Samples: samples,
	}
}

// tailLadder is the percentiles a tail may be reported at.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.90, 0.75, 0.50}

// tailPercentile returns the highest ladder percentile, no higher than
// limit, that still has at least ten of n samples beyond it — the most
// extreme tail the sample count can support.
func tailPercentile(n int, limit float64) float64 {
	for _, p := range tailLadder {
		if p <= limit && float64(n)*(1-p) >= 10 {
			return p
		}
	}
	return 0.50
}

// tail returns the value at tailPercentile(len(xs), limit).
func tail(xs []float64, limit float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return quantile(sortedCopy(xs), tailPercentile(len(xs), limit))
}

// openLoop is a fixed-rate send schedule: request i is due at
// start + i*interval whether or not earlier ones have completed.
type openLoop struct {
	start    time.Time
	interval time.Duration
}

func (o openLoop) due(i int) time.Time {
	return o.start.Add(time.Duration(i) * o.interval)
}

// lateness is how far behind its due time a request was actually sent;
// an early send is on time.
func (o openLoop) lateness(i int, sent time.Time) time.Duration {
	if d := sent.Sub(o.due(i)); d > 0 {
		return d
	}
	return 0
}

// latency is measured from the due time, not the send time, so a stalled
// generator charges the stall to the requests it delayed.
func (o openLoop) latency(i int, done time.Time) time.Duration {
	return done.Sub(o.due(i))
}

func durationsUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
