package dyn

import "sync"

// step is one undoable edit on the history stack. apply re-performs the
// edit (redo); revert undoes it. Both run without recording, so replaying
// history does not grow it.
type step struct {
	op     string
	apply  func()
	revert func()
}

// historyDepth is how many edits History keeps: a server that stays up
// while a developer edits it must not hold every edit it ever served.
const historyDepth = 1024

// History is the class's undo/redo stack. The paper's DL Publishers detect
// changes "by monitoring the JPie undo/redo stack"; in this runtime every
// committed edit lands here and also produces a ChangeEvent, and undo/redo
// themselves commit (and announce) the inverse edits. It keeps the newest
// 1024 edits; older ones can no longer be undone.
type History struct {
	class *Class

	mu     sync.Mutex
	stack  []*step
	cursor int // number of applied steps; stack[cursor:] are redoable
}

func newHistory(c *Class) *History {
	return &History{class: c}
}

// push records a freshly applied edit, truncating any redo tail and, at
// historyDepth, dropping the oldest edit. Dropping reslices the stack, so
// append copies it only when the backing array runs out: amortized O(1).
func (h *History) push(s *step) {
	h.mu.Lock()
	clear(h.stack[h.cursor:])
	h.stack = h.stack[:h.cursor]
	if len(h.stack) == historyDepth {
		h.stack[0] = nil // free it now, not when the array is next regrown
		h.stack = h.stack[1:]
	}
	h.stack = append(h.stack, s)
	h.cursor = len(h.stack)
	h.mu.Unlock()
}

// Len returns the number of edits currently on the stack (applied + redoable).
func (h *History) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.stack)
}

// UndoDepth returns how many edits can be undone.
func (h *History) UndoDepth() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cursor
}

// RedoDepth returns how many edits can be redone.
func (h *History) RedoDepth() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.stack) - h.cursor
}

// Undo reverts the most recent applied edit. The reversal is itself
// committed to the class (bumping versions and notifying listeners) but is
// not re-recorded; instead the cursor moves back so the edit can be redone.
func (h *History) Undo() error {
	h.mu.Lock()
	if h.cursor == 0 {
		h.mu.Unlock()
		return ErrNothingToUndo
	}
	h.cursor--
	s := h.stack[h.cursor]
	h.mu.Unlock()
	s.revert()
	return nil
}

// Redo re-applies the most recently undone edit.
func (h *History) Redo() error {
	h.mu.Lock()
	if h.cursor >= len(h.stack) {
		h.mu.Unlock()
		return ErrNothingToRedo
	}
	s := h.stack[h.cursor]
	h.cursor++
	h.mu.Unlock()
	s.apply()
	return nil
}

// Ops returns the descriptions of the recorded edits, oldest first.
func (h *History) Ops() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	ops := make([]string, len(h.stack))
	for i, s := range h.stack {
		ops[i] = s.op
	}
	return ops
}
