//go:build !race

package dyn

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// renameTimes renames method id n times, from its current name to m<from>,
// m<from+1>, ….
func renameTimes(t *testing.T, c *Class, id MemberID, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if err := c.RenameMethod(id, fmt.Sprintf("m%d", i)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRetainHistoryNewest1024: the undo history keeps the newest
// historyDepth edits — depth, descriptions and undo all stop there.
func TestRetainHistoryNewest1024(t *testing.T) {
	c, id := newCalcClass(t)
	renameTimes(t, c, id, 1, 5000)
	h := c.History()
	if h.UndoDepth() != historyDepth || h.Len() != historyDepth {
		t.Fatalf("after 5000 renames: UndoDepth %d, Len %d; want %d", h.UndoDepth(), h.Len(), historyDepth)
	}
	ops := h.Ops()
	if len(ops) != historyDepth || ops[0] != "rename method m3976 to m3977" || ops[len(ops)-1] != "rename method m4999 to m5000" {
		t.Fatalf("Ops() = %d entries from %q to %q; want the newest %d", len(ops), ops[0], ops[len(ops)-1], historyDepth)
	}
	for i := 0; i < historyDepth; i++ {
		if err := h.Undo(); err != nil {
			t.Fatalf("undo %d: %v", i+1, err)
		}
	}
	if err := h.Undo(); !errors.Is(err, ErrNothingToUndo) {
		t.Fatalf("undo past the window: %v, want ErrNothingToUndo", err)
	}
	if _, ok := c.MethodIDByName("m3976"); !ok {
		t.Errorf("after undoing the window the method is not m3976: %v", c.Interface().Methods)
	}
	if h.RedoDepth() != historyDepth {
		t.Errorf("RedoDepth %d, want %d", h.RedoDepth(), historyDepth)
	}
}

// TestRetainHistoryHeapFlat: 100 000 renames leave the live heap less than
// 1 MiB larger — the history holds 1024 steps, not one per edit ever made.
func TestRetainHistoryHeapFlat(t *testing.T) {
	c, id := newCalcClass(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	renameTimes(t, c, id, 1, 100_000)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("100 000 renames: live heap %+d bytes", grown)
	if grown >= 1<<20 {
		t.Errorf("live heap grew %d bytes over 100 000 renames, want under 1 MiB", grown)
	}
}
