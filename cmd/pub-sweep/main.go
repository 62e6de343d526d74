// Command pub-sweep explores the Section 5.6 publication-strategy design
// space: change-driven publication, periodic polling, and the paper's
// stable-timeout mechanism, replayed over a deterministic developer edit
// trace in virtual time.
//
// Usage:
//
//	pub-sweep [-seed N] [-bursts N]
package main

import (
	"flag"
	"fmt"
	"os"

	"livedev/internal/experiments"
)

func main() {
	os.Exit(run())
}

func run() int {
	seed := flag.Int64("seed", 1, "edit-trace seed")
	bursts := flag.Int("bursts", 20, "edit bursts in the developer trace")
	flag.Parse()

	cfg := experiments.DefaultSweep(*seed)
	cfg.Trace.Bursts = *bursts
	results, err := experiments.RunSweep(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pub-sweep:", err)
		return 1
	}
	fmt.Print(experiments.FormatSweep(results))
	return 0
}
