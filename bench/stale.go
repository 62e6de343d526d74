package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"livedev"
)

// staleCycle runs one Section 5.7 / Section 6 recovery on binding b: the
// server renames a method without publishing (its stability timer is now
// armed), the watcher-less client calls the old name, and the time until
// StaleMethodError returns — forced publication, fault, document fetch,
// compile, view installed — is the sample. The refreshed view must then
// contain the new name and a call to it must echo; that retry is untimed.
func staleCycle(s *session, b int) (time.Duration, error) {
	step := s.plan.nextOn(b)
	old := s.plan.nameAt(step)
	if _, err := s.cl.server.do(fmt.Sprintf("rename-no-publish %s %s %s", bindings[b].tech, old, step.newName)); err != nil {
		return 0, err // refused: the slot keeps its name on both sides
	}
	s.plan.apply(step)
	c := s.clients[b]
	ctx := context.Background()
	t0 := time.Now()
	_, err := c.CallContext(ctx, old, s.in.small)
	lat := time.Since(t0)
	var stale *livedev.StaleMethodError
	if !errors.As(err, &stale) {
		return 0, fmt.Errorf("stale call to %s returned %v, want StaleMethodError", old, err)
	}
	if _, ok := c.Interface().Lookup(step.newName); !ok {
		return 0, fmt.Errorf("refreshed view lacks %s", step.newName)
	}
	if _, ok := c.Interface().Lookup(old); ok {
		return 0, fmt.Errorf("refreshed view still has %s", old)
	}
	got, err := c.CallContext(ctx, step.newName, s.in.small)
	if err != nil || !got.Equal(s.in.small) {
		return 0, fmt.Errorf("retry on %s failed: %v", step.newName, err)
	}
	return lat, nil
}

// staleSlice runs cycles on binding b until the deadline (or count cycles
// when count > 0).
func staleSlice(s *session, b int, d time.Duration, count int) (sliceResult, []error) {
	var r sliceResult
	var errs []error
	start := time.Now()
	for (count > 0 && r.attempted < count) || (count == 0 && time.Since(start) < d) {
		s.cal.tick() // a cycle outlasts spinEvery: calibrate before each
		lat, err := staleCycle(s, b)
		r.attempted++
		if err != nil {
			r.failed++
			errs = append(errs, err)
			continue
		}
		r.lat = append(r.lat, lat)
	}
	end := time.Now()
	r.elapsed, r.factor = end.Sub(start), s.cal.factor(start, end)
	return r, errs
}

// warmupCycles is the number of discarded recoveries per binding at
// set-up.
const warmupCycles = 3

func setupStale(s *session, _ workload) error {
	var err error
	if s.clients, err = dialClients(context.Background(), s.cl.server.hello); err != nil {
		return err
	}
	for b := range bindings {
		if _, errs := staleSlice(s, b, 0, warmupCycles); len(errs) > 0 {
			return fmt.Errorf("bench: %s warm-up recovery: %w", bindings[b].tech, errs[0])
		}
	}
	return nil
}

// runStale measures stale-call recovery per binding in interleaved
// closed-loop rounds.
func runStale(s *session, w workload) (*result, error) {
	res := newResult(w)
	lanes := make([]lane, len(bindings))
	rounds := max(1, int(s.opt.window/roundLength))
	slice := s.opt.window / time.Duration(rounds*len(bindings))
	win := beginWindow(s)
	for r := 0; r < rounds; r++ {
		for k := range bindings {
			i := (k + r) % len(bindings)
			sr, errs := staleSlice(s, i, slice, 0)
			lanes[i].add(sr)
			for _, err := range errs {
				res.fail("%s recovery: %v", bindings[i].tech, err)
			}
		}
	}
	win.stop()
	ops := 0
	for i := range lanes {
		res.addLane(bindings[i].key, &lanes[i])
		ops += lanes[i].attempted - lanes[i].failed
	}
	win.report(res, ops)
	return res, nil
}
