// Command rtt-bench runs, by hand, the four watch-plane experiments the
// declared benchmark (bench/, BENCHMARK.json) does not cover yet, and
// prints one text table each. Nothing gates on its output; call latency,
// Table 1 and refresh figures come from `go run -C bench .`.
//
//   - Watcher fan-out (-fanout-watchers, on by default): edit→all-notified
//     latency across N held SSE streams. Sizes past a couple thousand
//     watchers move the serving store to a re-exec'd child process (fd
//     limits; honest scheduling). With -fanout-stall the same population is
//     measured once alone ("stream-base") and once sharing the server with
//     a client that never reads its socket ("stream-stall"): the delivery
//     pumps keep the two rows indistinguishable, and the stalled stream is
//     evicted at the write deadline — once its socket is full, which on
//     loopback takes a few MB (edits × payload); the "evicted" column
//     says whether the run got there.
//   - Restart reconnect (-restart): N streaming watchers ride an Interface
//     Server restart over a data dir, timed until every watcher is caught
//     up — once recovered via journal replay and once degraded to the
//     snapshot stampede.
//   - Durability (-durability): commit throughput per WAL sync policy and
//     cold-cache recovery time of a WAL-resident dataset.
//   - Replication (-replicas): N SSE watchers spread round-robin across a
//     leader and its read-only followers, timing
//     edit→all-notified across the plane plus the per-follower lag.
//
// Usage:
//
//	rtt-bench [-fanout-watchers 1,100,1000] [-fanout-edits N] [-fanout-payload BYTES]
//	          [-fanout-stall] [-fanout-stall-watchers N] [-fanout-stall-edits N]
//	          [-fanout-stall-payload BYTES] [-restart] [-restart-watchers N]
//	          [-durability] [-replicas 1,2,4] [-replica-watchers N] [-replica-edits N]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"livedev/internal/experiments"
)

func main() {
	// The replication fan-out re-execs this binary as its leader and
	// follower processes; when the child env var is set this runs the
	// child role and exits instead of benchmarking.
	experiments.ReplicationChild()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rtt-bench:", err)
		os.Exit(1)
	}
}

// parseSizes parses "1,100,1000" into watcher counts.
func parseSizes(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			continue
		}
		out = append(out, n)
	}
	return out
}

func run() error {
	fanoutSizes := flag.String("fanout-watchers", "1,100,1000", "comma-separated watcher counts for the fan-out rows (empty disables)")
	fanoutEdits := flag.Int("fanout-edits", 5, "edit rounds per fan-out configuration")
	fanoutPayload := flag.Int("fanout-payload", 0, "published document payload for the fan-out rows, in bytes (0 = tiny)")
	fanoutStall := flag.Bool("fanout-stall", false, "also measure stalled-watcher backpressure isolation (stream-base vs stream-stall rows)")
	stallWatchers := flag.Int("fanout-stall-watchers", 10000, "healthy stream-watcher population for the stall rows")
	stallEdits := flag.Int("fanout-stall-edits", 8, "edit rounds for the stall rows")
	stallPayload := flag.Int("fanout-stall-payload", 16384, "published document payload for the stall rows, in bytes")
	restart := flag.Bool("restart", false, "also measure restart-reconnect latency (durable store; replay vs snapshot recovery)")
	restartWatchers := flag.Int("restart-watchers", 1000, "watcher count for the restart-reconnect rows")
	durability := flag.Bool("durability", false, "also measure WAL sync-policy throughput and cold-cache recovery time")
	replicaCounts := flag.String("replicas", "", "comma-separated replica counts for the replication rows (empty disables; e.g. 1,2,4)")
	replicaWatchers := flag.Int("replica-watchers", 10000, "total watcher population for the replication rows")
	replicaEdits := flag.Int("replica-edits", 5, "edit rounds per replication configuration")
	flag.Parse()

	var fanoutRows []experiments.FanoutRow
	if sizes := parseSizes(*fanoutSizes); len(sizes) > 0 {
		rows, err := experiments.RunWatchFanout(experiments.FanoutConfig{
			Watchers: sizes,
			Edits:    *fanoutEdits,
			Payload:  *fanoutPayload,
		})
		if err != nil {
			return err
		}
		fanoutRows = rows
	}
	if *fanoutStall {
		rows, err := experiments.RunFanoutStall(experiments.FanoutStallConfig{
			Watchers: *stallWatchers,
			Edits:    *stallEdits,
			Payload:  *stallPayload,
		})
		if err != nil {
			return err
		}
		fanoutRows = append(fanoutRows, rows...)
	}
	if len(fanoutRows) > 0 {
		fmt.Print(experiments.FormatFanout("Watcher fan-out: edit→all-notified latency over held streams", fanoutRows))
	}

	if *restart {
		rows, err := experiments.RunRestartReconnect(experiments.RestartConfig{Watchers: *restartWatchers})
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(experiments.FormatFanout("Restart reconnect: restart→all-caught-up latency", rows))
	}

	if *durability {
		rows, err := experiments.RunDurabilitySweep(experiments.DurabilityConfig{})
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(experiments.FormatDurability(rows))
	}

	if counts := parseSizes(*replicaCounts); len(counts) > 0 {
		rows, err := experiments.RunReplicationFanout(experiments.ReplicationConfig{
			Replicas: counts,
			Watchers: *replicaWatchers,
			Edits:    *replicaEdits,
		})
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(experiments.FormatReplication(rows))
	}
	return nil
}
