package experiments

import (
	"testing"
)

// TestRestartReconnectSmoke runs the restart-reconnect experiment at a
// small scale: both recovery paths must produce a row, the replay path
// must come from a store that resumed its epoch sequence (the experiment
// itself fails if watchers never converge), and the latencies are sane.
func TestRestartReconnectSmoke(t *testing.T) {
	rows, err := RunRestartReconnect(RestartConfig{Watchers: 8, Rounds: 1, DownCommits: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 (replay + snapshot)", len(rows))
	}
	for _, r := range rows {
		if r.Transport != "restart-replay" && r.Transport != "restart-snapshot" {
			t.Errorf("unexpected transport %q", r.Transport)
		}
		if r.Watchers != 8 || r.Edits != 1 {
			t.Errorf("row %+v: want 8 watchers, 1 round", r)
		}
		if r.Mean <= 0 || r.Mean > r.Max || r.P50 > r.Max {
			t.Errorf("row %+v: implausible latencies", r)
		}
	}
}

func TestReplicationFanoutSmoke(t *testing.T) {
	rows, err := RunReplicationFanout(ReplicationConfig{Replicas: []int{1, 2}, Watchers: 20, Edits: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Watchers != 20 || r.Edits != 2 || r.Mean <= 0 {
			t.Errorf("malformed row %+v", r)
		}
	}
	if rows[0].Replicas != 1 || rows[0].LagP99 != 0 {
		t.Errorf("leader-only row must carry zero lag: %+v", rows[0])
	}
	if rows[1].Replicas != 2 || rows[1].LagP99 == 0 {
		t.Errorf("2-replica row must carry a follower lag: %+v", rows[1])
	}
	if FormatReplication(rows) == "" {
		t.Error("empty table")
	}
}

// TestFanoutStallSmoke runs the stalled-watcher experiment at toy size.
// The documents are fat on purpose: loopback absorbs a few MB towards a
// client that never reads, and only past that does the server's write
// block, miss its deadline and evict the stream.
func TestFanoutStallSmoke(t *testing.T) {
	t.Parallel()
	rows, err := RunFanoutStall(FanoutStallConfig{Watchers: 4, Edits: 16, Payload: 512 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Transport != "stream-base" || rows[1].Transport != "stream-stall" {
		t.Fatalf("rows = %+v, want stream-base then stream-stall", rows)
	}
	for _, r := range rows {
		if r.Watchers != 4 || r.Edits != 16 || r.Mean <= 0 {
			t.Errorf("malformed row %+v", r)
		}
	}
	if rows[0].Evictions != 0 || rows[1].Evictions != 1 {
		t.Errorf("evictions = %d alone, %d beside the stalled client; want 0 and 1", rows[0].Evictions, rows[1].Evictions)
	}
}

// TestDurabilitySweepSmoke runs the WAL sync sweep at a few dozen commits:
// one throughput row per policy, then the recovery row.
func TestDurabilitySweepSmoke(t *testing.T) {
	t.Parallel()
	rows, err := RunDurabilitySweep(DurabilityConfig{
		Publishers: 4, Commits: 8, RecoveryDocs: 6, RecoveryBytes: 4 << 10, Trials: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 3 throughput + 1 recovery", len(rows))
	}
	for _, r := range rows[:3] {
		if r.Kind != "throughput" || r.Commits != 32 || r.OpsPerSec <= 0 {
			t.Errorf("malformed throughput row %+v", r)
		}
	}
	if r := rows[3]; r.Kind != "recovery" || r.Commits != 6 || r.Recovery <= 0 {
		t.Errorf("malformed recovery row %+v", r)
	}
	if FormatDurability(rows) == "" {
		t.Error("empty table")
	}
}
