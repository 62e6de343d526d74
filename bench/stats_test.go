package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileAndMedian(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4}} {
		if got := quantile(s, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{9, 1, 5, 3}); got != 4 {
		t.Errorf("median of an even count = %v, want 4", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN so the metric fails the finite check")
	}
}

func TestSummarizeRounds(t *testing.T) {
	// One wild round must not move the reported value.
	got := summarizeRounds([]float64{10, 11, 12, 13, 500}, 1234)
	if got.Median != 12 || got.Q1 != 11 || got.Q3 != 13 || got.Rounds != 5 || got.Samples != 1234 {
		t.Errorf("summarizeRounds = %+v", got)
	}
	if empty := summarizeRounds(nil, 0); !math.IsNaN(empty.Median) {
		t.Errorf("no rounds must summarize to NaN, got %+v", empty)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n     int
		limit float64
		want  float64
	}{
		{10000, 0.99, 0.99}, // capped by the limit
		{10000, 1, 0.999},   // exactly ten beyond p99.9
		{9999, 1, 0.99},     // one short of p99.9
		{1000, 0.99, 0.99},  // exactly ten beyond
		{999, 0.99, 0.95},   // one short: fall to the next rung
		{200, 0.95, 0.95},
		{199, 0.95, 0.90},
		{40, 0.99, 0.75},
		{20, 0.99, 0.50},
		{3, 0.99, 0.50},
	} {
		if got := tailPercentile(c.n, c.limit); got != c.want {
			t.Errorf("tailPercentile(%d, %v) = %v, want %v", c.n, c.limit, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v := tail(xs, 0.99); math.Abs(v-989.01) > 1e-6 {
		t.Errorf("tail = %v, want the p99", v)
	}
}

func TestOpenLoopSchedule(t *testing.T) {
	start := time.Unix(1000, 0)
	ol := openLoop{start: start, interval: 25 * time.Millisecond}
	if got := ol.due(4); !got.Equal(start.Add(100 * time.Millisecond)) {
		t.Errorf("due(4) = %v", got)
	}
	// A request sent early or on time is not late.
	if got := ol.lateness(4, start.Add(90*time.Millisecond)); got != 0 {
		t.Errorf("early send counted %v late", got)
	}
	if got := ol.lateness(4, start.Add(130*time.Millisecond)); got != 30*time.Millisecond {
		t.Errorf("lateness = %v, want 30ms", got)
	}
	// Latency runs from the due time: a generator stall of 30 ms on a
	// request served in 5 ms reads 35 ms, not 5.
	if got := ol.latency(4, start.Add(135*time.Millisecond)); got != 35*time.Millisecond {
		t.Errorf("latency = %v, want 35ms", got)
	}
}

func TestPerRoundP50(t *testing.T) {
	got := perRoundP50([]float64{1, 3, 10, 20, 30, 7}, []int{0, 0, 2, 2, 2, 4})
	want := []float64{2, 20, 7} // rounds without a sample are skipped
	if len(got) != len(want) {
		t.Fatalf("perRoundP50 = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("perRoundP50 = %v, want %v", got, want)
		}
	}
}
