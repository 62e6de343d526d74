// Package workload provides deterministic workload generation for the
// experiments: a developer editing model (bursts of interface edits
// separated by think time) driving the Section 5.6 publication-strategy
// study.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"livedev/internal/dyn"
)

// EditKind classifies one edit in a developer trace.
type EditKind int

// The edit kinds the generator produces. Interface edits arm the SDE
// publication timer; body edits do not.
const (
	EditRename EditKind = iota + 1
	EditSetParams
	EditSetResult
	EditToggleDistributed
	EditBody
)

// String names the edit kind.
func (k EditKind) String() string {
	switch k {
	case EditRename:
		return "rename"
	case EditSetParams:
		return "set-params"
	case EditSetResult:
		return "set-result"
	case EditToggleDistributed:
		return "toggle-distributed"
	case EditBody:
		return "edit-body"
	default:
		return "unknown"
	}
}

// Edit is one step of a developer trace: wait Delay, then perform Kind.
type Edit struct {
	Delay time.Duration
	Kind  EditKind
}

// TraceConfig parameterizes the editing model: a developer edits in bursts
// (rapid consecutive edits while restructuring a signature), separated by
// think time (reading, testing, writing bodies).
type TraceConfig struct {
	// Seed makes the trace reproducible.
	Seed int64
	// Bursts is the number of edit bursts.
	Bursts int
	// BurstLen is the mean number of edits per burst.
	BurstLen int
	// IntraBurst is the mean delay between edits inside a burst.
	IntraBurst time.Duration
	// ThinkTime is the mean delay between bursts.
	ThinkTime time.Duration
	// BodyEditFraction is the probability an edit is implementation-only.
	BodyEditFraction float64
}

// DefaultTrace is a plausible editing session: 20 bursts of ~5 edits,
// 150 ms between keystroke-level edits, 3 s of think time between bursts.
func DefaultTrace(seed int64) TraceConfig {
	return TraceConfig{
		Seed:             seed,
		Bursts:           20,
		BurstLen:         5,
		IntraBurst:       150 * time.Millisecond,
		ThinkTime:        3 * time.Second,
		BodyEditFraction: 0.3,
	}
}

// Generate produces the deterministic edit trace for the configuration.
func Generate(cfg TraceConfig) []Edit {
	r := rand.New(rand.NewSource(cfg.Seed))
	var trace []Edit
	kinds := []EditKind{EditRename, EditSetParams, EditSetResult, EditToggleDistributed}
	jitter := func(mean time.Duration) time.Duration {
		if mean <= 0 {
			return 0
		}
		// 50%..150% of the mean, uniformly.
		f := 0.5 + r.Float64()
		return time.Duration(float64(mean) * f)
	}
	for b := 0; b < cfg.Bursts; b++ {
		n := cfg.BurstLen
		if n <= 0 {
			n = 1
		}
		// Burst length varies ±50%.
		n = 1 + r.Intn(2*n)
		for i := 0; i < n; i++ {
			delay := jitter(cfg.IntraBurst)
			if i == 0 {
				delay = jitter(cfg.ThinkTime)
			}
			kind := kinds[r.Intn(len(kinds))]
			if r.Float64() < cfg.BodyEditFraction {
				kind = EditBody
			}
			trace = append(trace, Edit{Delay: delay, Kind: kind})
		}
	}
	return trace
}

// Apply performs one edit on the class's method id, deterministically
// derived from step so traces replay identically. It reports whether the
// edit was interface-affecting by construction.
func Apply(class *dyn.Class, id dyn.MemberID, e Edit, step int) (bool, error) {
	switch e.Kind {
	case EditRename:
		return true, class.RenameMethod(id, fmt.Sprintf("op_%d", step))
	case EditSetParams:
		params := make([]dyn.Param, 1+step%3)
		for i := range params {
			params[i] = dyn.Param{Name: fmt.Sprintf("p%d", i), Type: dyn.Int32T}
		}
		return true, class.SetParams(id, params)
	case EditSetResult:
		results := []*dyn.Type{dyn.Int32T, dyn.Int64T, dyn.StringT, dyn.Float64T}
		return true, class.SetResult(id, results[step%len(results)])
	case EditToggleDistributed:
		// Toggle twice is a no-op; alternate to keep it affecting.
		return true, class.SetDistributed(id, step%2 == 0)
	case EditBody:
		return false, class.SetBody(id, func(*dyn.Instance, []dyn.Value) (dyn.Value, error) {
			return dyn.Zero(dyn.Int32T), nil
		})
	default:
		return false, fmt.Errorf("workload: unknown edit kind %d", e.Kind)
	}
}
