package dyn

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentEditsRaceLiveCalls drives the lock-free dispatch table the
// way the SDE does in production: call handlers invoking continuously while
// the developer edits the class. Run under -race (CI does) it proves the
// mutex-free call path is data-race free; the generation check proves the
// paper's immediate-effect semantics survived the lock removal — a call
// started after an edit, an undo or a redo returns must observe it.
func TestConcurrentEditsRaceLiveCalls(t *testing.T) {
	c := NewClass("Raced")
	// published is the body generation the editor has committed; bodies
	// return their own generation, so callers can check they never observe
	// a body older than one committed before their call began.
	var published atomic.Int64
	makeBody := func(gen int64) Body {
		return func(_ *Instance, _ []Value) (Value, error) {
			return Int64Value(gen), nil
		}
	}
	id, err := c.AddMethod(MethodSpec{
		Name:        "gen",
		Result:      Int64T,
		Distributed: true,
		Body:        makeBody(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	in := c.NewInstance()

	const (
		callers           = 4
		editRoundsPerKind = 200
	)
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Callers: invoke continuously, checking the immediate-effect bound.
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				floor := published.Load()
				v, err := in.InvokeDistributed("gen", nil...)
				if err != nil {
					// The editor also toggles the distributed flag and
					// renames; those windows legitimately yield
					// ErrNoSuchMethod. Anything else is a real failure.
					if !errors.Is(err, ErrNoSuchMethod) {
						t.Errorf("Invoke: %v", err)
						return
					}
					continue
				}
				if got := v.Int64(); got < floor {
					t.Errorf("call observed body generation %d, but generation %d was committed before the call began", got, floor)
					return
				}
			}
		}()
	}

	// Editor: body swaps (the immediate-effect edit), signature edits,
	// renames, distributed-flag flips, and undo and redo of them, all
	// racing the callers.
	h := c.History()
	var gen int64
	for r := 0; r < editRoundsPerKind; r++ {
		gen++
		if err := c.SetBody(id, makeBody(gen)); err != nil {
			t.Fatal(err)
		}
		// Undo puts the previous body back and redo puts the new one
		// again; the bound moves up only once redo has returned, so a
		// call that starts after that must see it.
		if err := h.Undo(); err != nil {
			t.Fatal(err)
		}
		if v, err := in.InvokeDistributed("gen"); err != nil || v.Int64() != gen-1 {
			t.Fatalf("after undo returned: %v, %v; want generation %d", v, err, gen-1)
		}
		if err := h.Redo(); err != nil {
			t.Fatal(err)
		}
		published.Store(gen)

		if err := c.SetDistributed(id, false); err != nil {
			t.Fatal(err)
		}
		if err := c.SetDistributed(id, true); err != nil {
			t.Fatal(err)
		}
		if err := c.RenameMethod(id, "genX"); err != nil {
			t.Fatal(err)
		}
		if err := c.RenameMethod(id, "gen"); err != nil {
			t.Fatal(err)
		}
		// Unwind the rename pair and the flag flip, then replay them.
		for i := 0; i < 3; i++ {
			if err := h.Undo(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			if err := h.Redo(); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()

	// After the storm, dispatch must reflect the final state exactly.
	v, err := in.InvokeDistributed("gen")
	if err != nil {
		t.Fatalf("final invoke: %v", err)
	}
	if v.Int64() != gen {
		t.Errorf("final body generation = %d, want %d", v.Int64(), gen)
	}
}

// TestDispatchSeesEditImmediately pins the sequential guarantee the COW
// swap provides: an edit call that has returned is visible to the very
// next invocation, with no grace period.
func TestDispatchSeesEditImmediately(t *testing.T) {
	c := NewClass("Immediate")
	id, err := c.AddMethod(MethodSpec{
		Name:        "m",
		Result:      Int32T,
		Distributed: true,
		Body: func(_ *Instance, _ []Value) (Value, error) {
			return Int32Value(1), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	in := c.NewInstance()
	for i := int32(2); i < 100; i++ {
		v := i
		if err := c.SetBody(id, func(_ *Instance, _ []Value) (Value, error) {
			return Int32Value(v), nil
		}); err != nil {
			t.Fatal(err)
		}
		got, err := in.Invoke("m")
		if err != nil {
			t.Fatal(err)
		}
		if got.Int32() != v {
			t.Fatalf("after SetBody(%d) returned, Invoke saw %d", v, got.Int32())
		}
	}
}
