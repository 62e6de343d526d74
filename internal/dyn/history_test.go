package dyn

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"
)

func TestUndoRedoAddMethod(t *testing.T) {
	c, _ := newCalcClass(t)
	h := c.History()
	if h.UndoDepth() != 1 {
		t.Fatalf("UndoDepth = %d, want 1", h.UndoDepth())
	}
	in := c.NewInstance()

	if err := h.Undo(); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Invoke("add", Int32Value(1), Int32Value(2)); !errors.Is(err, ErrNoSuchMethod) {
		t.Error("undone method should be gone")
	}
	if h.UndoDepth() != 0 || h.RedoDepth() != 1 {
		t.Errorf("depths after undo: %d/%d", h.UndoDepth(), h.RedoDepth())
	}

	if err := h.Redo(); err != nil {
		t.Fatal(err)
	}
	if v, err := in.Invoke("add", Int32Value(1), Int32Value(2)); err != nil || v.Int32() != 3 {
		t.Errorf("redone method should work: %v, %v", v, err)
	}
}

func TestUndoRedoRemoveMethodRestoresEverything(t *testing.T) {
	c, id := newCalcClass(t)
	in := c.NewInstance()
	if err := c.RemoveMethod(id); err != nil {
		t.Fatal(err)
	}
	if err := c.History().Undo(); err != nil {
		t.Fatal(err)
	}
	// Signature, distributed flag, and body all come back.
	v, err := in.InvokeDistributed("add", Int32Value(2), Int32Value(2))
	if err != nil || v.Int32() != 4 {
		t.Fatalf("restored method: %v, %v", v, err)
	}
	if got, ok := c.MethodIDByName("add"); !ok || got != id {
		t.Error("restored method should keep its member ID")
	}
}

func TestUndoRedoSignatureEdits(t *testing.T) {
	c, id := newCalcClass(t)
	h := c.History()

	if err := c.RenameMethod(id, "sum"); err != nil {
		t.Fatal(err)
	}
	if err := c.SetResult(id, Int64T); err != nil {
		t.Fatal(err)
	}
	if err := c.SetParams(id, []Param{{Name: "only", Type: Int64T}}); err != nil {
		t.Fatal(err)
	}
	sigAfter := c.Interface().Methods[0]

	// Unwind all three edits.
	for i := 0; i < 3; i++ {
		if err := h.Undo(); err != nil {
			t.Fatal(err)
		}
	}
	d := c.Interface()
	if d.Methods[0].String() != "add(a:int32,b:int32):int32" {
		t.Errorf("after undo: %s", d.Methods[0])
	}
	// Replay them.
	for i := 0; i < 3; i++ {
		if err := h.Redo(); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Interface().Methods[0]; !got.Equal(sigAfter) {
		t.Errorf("after redo: %s, want %s", got, sigAfter)
	}
}

func TestRedoTailTruncatedByNewEdit(t *testing.T) {
	c, id := newCalcClass(t)
	h := c.History()
	if err := c.RenameMethod(id, "sum"); err != nil {
		t.Fatal(err)
	}
	if err := h.Undo(); err != nil {
		t.Fatal(err)
	}
	if h.RedoDepth() != 1 {
		t.Fatalf("RedoDepth = %d", h.RedoDepth())
	}
	// A fresh edit kills the redo tail.
	if err := c.SetResult(id, Int64T); err != nil {
		t.Fatal(err)
	}
	if h.RedoDepth() != 0 {
		t.Error("new edit must truncate redo tail")
	}
	if err := h.Redo(); !errors.Is(err, ErrNothingToRedo) {
		t.Errorf("Redo on empty tail: %v", err)
	}
}

func TestUndoEmpty(t *testing.T) {
	c := NewClass("C")
	if err := c.History().Undo(); !errors.Is(err, ErrNothingToUndo) {
		t.Errorf("Undo on empty history: %v", err)
	}
	if err := c.History().Redo(); !errors.Is(err, ErrNothingToRedo) {
		t.Errorf("Redo on empty history: %v", err)
	}
}

func TestUndoRedoEmitChangeEvents(t *testing.T) {
	c, id := newCalcClass(t)
	var events []ChangeEvent
	c.Subscribe(func(ev ChangeEvent) { events = append(events, ev) })

	if err := c.RenameMethod(id, "sum"); err != nil {
		t.Fatal(err)
	}
	if err := c.History().Undo(); err != nil {
		t.Fatal(err)
	}
	if err := c.History().Redo(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("want 3 events (edit, undo, redo), got %d", len(events))
	}
	for i, ev := range events {
		if !ev.InterfaceAffecting {
			t.Errorf("event %d: rename of distributed method is interface-affecting", i)
		}
	}
	// Interface version strictly increases even when content reverts: the
	// publisher needs monotone versions.
	if !(events[0].InterfaceVersion < events[1].InterfaceVersion &&
		events[1].InterfaceVersion < events[2].InterfaceVersion) {
		t.Errorf("interface versions must be monotone: %d, %d, %d",
			events[0].InterfaceVersion, events[1].InterfaceVersion, events[2].InterfaceVersion)
	}
}

func TestHistoryOps(t *testing.T) {
	c, id := newCalcClass(t)
	if err := c.RenameMethod(id, "sum"); err != nil {
		t.Fatal(err)
	}
	ops := c.History().Ops()
	if len(ops) != 2 {
		t.Fatalf("Ops() = %v", ops)
	}
	if ops[0] != "add method add" || ops[1] != "rename method add to sum" {
		t.Errorf("Ops() = %v", ops)
	}
	if c.History().Len() != 2 {
		t.Errorf("Len() = %d", c.History().Len())
	}
}

// TestHistoryOrderIsCommitOrder: edits committed at once from several
// goroutines land on the history in the order they were committed, so
// undoing them all walks back through the states the class really had.
func TestHistoryOrderIsCommitOrder(t *testing.T) {
	const editors, renames, rounds = 4, 50, 200
	for round := 0; round < rounds; round++ {
		c := NewClass("Order")
		ids := make([]MemberID, editors)
		for g := range ids {
			id, err := c.AddMethod(MethodSpec{Name: fmt.Sprintf("g%d_0", g), Result: Int32T, Distributed: true})
			if err != nil {
				t.Fatal(err)
			}
			ids[g] = id
		}
		var mu sync.Mutex
		opBySeq := make(map[uint64]string)
		c.Subscribe(func(ev ChangeEvent) {
			mu.Lock()
			opBySeq[ev.Seq] = ev.Op
			mu.Unlock()
		})
		var wg sync.WaitGroup
		for g, id := range ids {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 1; i <= renames; i++ {
					if err := c.RenameMethod(id, fmt.Sprintf("g%d_%d", g, i)); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		want := make([]string, 0, len(opBySeq))
		for _, seq := range slices.Sorted(maps.Keys(opBySeq)) {
			want = append(want, opBySeq[seq])
		}
		ops := c.History().Ops()
		if got := ops[len(ops)-len(want):]; !slices.Equal(got, want) {
			t.Fatalf("round %d: history order is not commit order:\nhistory %q\ncommits %q", round, got, want)
		}
	}
}
