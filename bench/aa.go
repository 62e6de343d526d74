package main

import (
	"fmt"
	"math"
	"os"
)

// runAA is the A/A check: the selected workloads are run twice on the same
// binary, and every end-to-end metric's two values are compared against
// the metric's own bound. Two runs of one commit that differ by more than a
// bound mean the bound cannot carry a claim on this machine; the exit code
// says so.
func runAA(ws []workload, opt options) int {
	opt.trace = false
	var passes [2]map[string]*result
	for p := range passes {
		passes[p] = make(map[string]*result)
		for _, w := range ws {
			r, err := runWorkload(w, opt)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			validate(r, endToEndDefs)
			passes[p][w.name] = r
		}
	}
	breaches := 0
	fmt.Printf("%-18s %-22s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range ws {
		a, b := passes[0][w.name], passes[1][w.name]
		for _, r := range []*result{a, b} {
			if !r.Correct {
				breaches++
				for _, p := range r.problems {
					fmt.Printf("%-18s PROBLEM: %s\n", w.name, p)
				}
			}
		}
		for _, d := range endToEndDefs {
			x, y := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			diff := math.Abs(y-x) / x
			verdict := ""
			if !(diff <= d.Bound) {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Printf("%-18s %-22s %14.4f %14.4f %7.1f%% %5.0f%%%s\n", w.name, d.Name, x, y, 100*diff, 100*d.Bound, verdict)
		}
	}
	if breaches > 0 {
		fmt.Printf("A/A: %d breaches\n", breaches)
		return 1
	}
	fmt.Println("A/A: every metric within its bound")
	return 0
}
