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
	s.ApplyReplicated([]StoreEvent{{Path: "/a1", Doc: Document{Content: "a1", Version: 1, Epoch: 1}}})
	s.ApplyReplicated([]StoreEvent{{Path: "/b", Doc: Document{Content: "b1", Version: 1, Epoch: 5}}})
	// A bootstrap of the leader's state at epoch 9, covering both.
	if n := s.ApplyReplicated([]StoreEvent{
		{Path: "/a1", Doc: Document{Content: "a1", Version: 1, Epoch: 1}},
		{Path: "/b", Doc: Document{Content: "b1", Version: 1, Epoch: 5}},
		{Path: "/a2", Doc: Document{Content: "a2", Version: 1, Epoch: 7}},
		{Path: "/a3", Doc: Document{Content: "a3", Version: 1, Epoch: 9}},
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
		{Path: "/x", Doc: Document{Content: "old", Version: 9, Epoch: 12}},
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
		{Path: "/x", Doc: Document{Content: "new", Version: 1, Epoch: 2}},
		{Path: "/gone", Doc: Document{Content: "back", Version: 1, Epoch: 3}},
	}); n != 2 {
		t.Fatalf("applied %d events after reset, want 2", n)
	}
	if d, err := s.Get("/x"); err != nil || d.Version != 1 || d.Content != "new" {
		t.Fatalf("post-reset /x = %+v, %v; want v1 %q", d, err, "new")
	}
}
