package ifsvr

import (
	"slices"
	"testing"
)

// TestReplicatedJournalStaysSorted: a replica's replay journal only
// appends, and stays sorted by epoch — the replay binary search needs it —
// because the replica applies in the leader's commit order. That holds
// for a snapshot bootstrap overlapping records already applied: the
// bootstrap's documents come epoch-sorted, those the replica has are
// filtered by version, and the rest are newer than anything journaled.
func TestReplicatedJournalStaysSorted(t *testing.T) {
	s := NewStore(0, nil)
	defer s.Close()

	// Two live commit records.
	s.ApplyReplicated([]StoreEvent{replicatedEvent("/a1", "a1", 1, 1)})
	s.ApplyReplicated([]StoreEvent{replicatedEvent("/b", "b1", 1, 5)})
	// A bootstrap of the leader's state at epoch 9, covering both.
	if n := s.ApplyReplicated([]StoreEvent{
		replicatedEvent("/a1", "a1", 1, 1),
		replicatedEvent("/b", "b1", 1, 5),
		replicatedEvent("/a2", "a2", 1, 7),
		replicatedEvent("/a3", "a3", 1, 9),
	}); n != 2 {
		t.Fatalf("bootstrap applied %d events, want the 2 the replica lacked", n)
	}

	s.mu.Lock()
	var epochs []uint64
	for _, ev := range s.journal {
		epochs = append(epochs, ev.Doc.Epoch)
	}
	s.mu.Unlock()
	if !slices.Equal(epochs, []uint64{1, 5, 7, 9}) {
		t.Fatalf("journal epochs %v, want [1 5 7 9]", epochs)
	}
	for _, c := range []struct {
		path  string
		after uint64
		epoch uint64
	}{{"/b", 3, 5}, {"/a3", 5, 9}, {"/a1", 0, 1}} {
		evs, ok := s.ReplayEventsInto(c.path, c.after, nil)
		if !ok || len(evs) != 1 || evs[0].Doc.Epoch != c.epoch {
			t.Fatalf("ReplayEventsInto(%s, %d) = %+v, %v; want the epoch-%d version", c.path, c.after, evs, ok, c.epoch)
		}
	}
}

// TestResetReplicatedClearsIncarnation pins the follower-reset seam: a
// replica that adopted state from a dead leader incarnation wipes
// documents, retired floors, journal, and epochs, adopts the new
// generation, and then accepts the new incarnation's LOWER versions.
func TestResetReplicatedClearsIncarnation(t *testing.T) {
	s := NewStore(0, nil)
	defer s.Close()
	s.SetReadOnly(true)
	s.AdoptGeneration(77)
	s.ApplyReplicated([]StoreEvent{
		replicatedEvent("/x", "old", 9, 12),
	})
	s.ApplyReplicatedRemove("/gone", 4)

	s.ResetReplicated(78)
	if g := s.Generation(); g != 78 {
		t.Fatalf("generation after reset = %d, want 78", g)
	}
	if e := s.Epoch(); e != 0 {
		t.Fatalf("epoch after reset = %d, want 0", e)
	}
	if _, err := s.Get("/x"); err == nil {
		t.Fatal("stale document survived the reset")
	}
	// The new incarnation's low-numbered bootstrap applies cleanly — the
	// old incarnation's version floor is gone.
	if n := s.ApplyReplicated([]StoreEvent{
		replicatedEvent("/x", "new", 1, 2),
		replicatedEvent("/gone", "back", 1, 3),
	}); n != 2 {
		t.Fatalf("applied %d events after reset, want 2", n)
	}
	if d, err := s.Get("/x"); err != nil || d.Version != 1 || d.Content != "new" {
		t.Fatalf("post-reset /x = %+v, %v; want v1 %q", d, err, "new")
	}
}
