package ifsvr

import "testing"

// TestReplicatedJournalStaysSorted pins the journal-insert invariant
// under interleaved shard streams: a multi-epoch bootstrap block from
// one shard must not land as one contiguous run around an epoch another
// shard's live record already journaled — the replay binary search
// requires the ring sorted by epoch.
func TestReplicatedJournalStaysSorted(t *testing.T) {
	s := NewStore(0, nil)
	defer s.Close()

	// Shard B's live commit record applies first, at epoch 5.
	s.ApplyReplicated([]StoreEvent{
		{Path: "/b", Doc: Document{Content: "b1", Version: 1, Epoch: 5}},
	})
	// Shard A's bootstrap block spans epochs 1..9. A contiguous insert
	// keyed on the block's first epoch would place the whole block before
	// epoch 5 and unsort the ring.
	s.ApplyReplicated([]StoreEvent{
		{Path: "/a1", Doc: Document{Content: "a1", Version: 1, Epoch: 1}},
		{Path: "/a2", Doc: Document{Content: "a2", Version: 1, Epoch: 3}},
		{Path: "/a3", Doc: Document{Content: "a3", Version: 1, Epoch: 9}},
	})

	s.mu.Lock()
	var last uint64
	for i, ev := range s.journal {
		if ev.Doc.Epoch < last {
			s.mu.Unlock()
			t.Fatalf("journal unsorted at %d: epoch %d after %d", i, ev.Doc.Epoch, last)
		}
		last = ev.Doc.Epoch
	}
	n := len(s.journal)
	s.mu.Unlock()
	if n != 4 {
		t.Fatalf("journal holds %d events, want 4", n)
	}

	// The binary-searched replay must still see the interleaved entries.
	evs, ok := s.ReplayEventsInto("/b", 3, nil)
	if !ok || len(evs) != 1 || evs[0].Doc.Epoch != 5 {
		t.Fatalf("ReplayEventsInto(/b, 3) = %+v, %v; want the epoch-5 version", evs, ok)
	}
	evs, ok = s.ReplayEventsInto("/a3", 5, evs)
	if !ok || len(evs) != 1 || evs[0].Doc.Epoch != 9 {
		t.Fatalf("ReplayEventsInto(/a3, 5) = %+v, %v; want the epoch-9 version", evs, ok)
	}
	evs, ok = s.ReplayEventsInto("/a1", 0, evs)
	if !ok || len(evs) != 1 || evs[0].Doc.Epoch != 1 {
		t.Fatalf("ReplayEventsInto(/a1, 0) = %+v, %v; want the epoch-1 version", evs, ok)
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
