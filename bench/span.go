package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the index of the span that caused this one (-1 for
// a root). Times are nanoseconds since the recorder was created.
type span struct {
	Op     uint32 `json:"op"`
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; nothing is written until the benchmark
// ends. A nil *recorder records nothing, which is how the same recomposed
// call path runs with tracing off to price the tracing itself.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(op uint32, name string, parent int32) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Op: op, Name: name, Parent: parent, Start: int64(time.Since(r.epoch))})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(idx int32) {
	if r == nil {
		return
	}
	r.spans[idx].End = int64(time.Since(r.epoch))
}

// selfTime is a span's duration minus the part of that interval its child
// spans cover. Overlapping children are merged first, so time covered
// twice is subtracted once.
func selfTime(s span, kids [][2]int64) time.Duration {
	sort.Slice(kids, func(a, b int) bool { return kids[a][0] < kids[b][0] })
	covered, cursor := int64(0), s.Start
	for _, k := range kids {
		lo, hi := max(k[0], cursor), min(k[1], s.End)
		if hi > lo {
			covered += hi - lo
			cursor = hi
		}
	}
	return time.Duration(s.End - s.Start - covered)
}

// selfTimes returns every span's self time, grouped by the name of the
// span's root ancestor and then by its own name — the root's own entry
// being whatever its stages left uncovered.
func selfTimes(spans []span) map[string]map[string][]time.Duration {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]map[string][]time.Duration)
	for i, s := range spans {
		root := s
		for root.Parent >= 0 {
			root = spans[root.Parent]
		}
		if out[root.Name] == nil {
			out[root.Name] = make(map[string][]time.Duration)
		}
		out[root.Name][s.Name] = append(out[root.Name][s.Name], selfTime(s, children[int32(i)]))
	}
	return out
}

// budgetLine is one stage of a path's time budget in the span file.
type budgetLine struct {
	Stage string  `json:"stage"`
	US    float64 `json:"p50_us"`
}

// pathBudget decomposes one end-to-end latency into the stages measured
// from outside plus the explicit residual nobody outside can see. The
// lines sum to TotalUS by construction; MeasuredUS is the p50 the traced
// pass measured for the whole path, for comparison with that sum and with
// the untraced end-to-end metric.
type pathBudget struct {
	Path       string       `json:"path"`
	TotalUS    float64      `json:"lines_sum_us"`
	MeasuredUS float64      `json:"measured_p50_us"`
	Lines      []budgetLine `json:"lines"`
}

func newBudget(path string, measured float64, lines []budgetLine) pathBudget {
	b := pathBudget{Path: path, MeasuredUS: measured, Lines: lines}
	for _, l := range lines {
		b.TotalUS += l.US
	}
	return b
}

// spanFile is what -spans writes: the raw spans of the traced pass (the
// first maxSpanOps operations of each path) and the budgets derived from
// all of them.
type spanFile struct {
	Workload string       `json:"workload"`
	Seed     uint64       `json:"seed"`
	Budgets  []pathBudget `json:"budgets"`
	Spans    []span       `json:"spans"`
}

func writeSpanFile(path string, f spanFile) error {
	b, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("bench: encoding spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("bench: writing spans: %w", err)
	}
	return nil
}
