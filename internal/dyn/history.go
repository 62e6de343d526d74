package dyn

// step is one undoable edit on the history stack, held as data: the edit's
// description, the method it touched, and that method's record before and
// after it (nil where the edit added or removed the method). Undo puts
// before back; redo puts after again.
type step struct {
	op            string
	id            MemberID
	before, after *method
}

// historyDepth is how many edits History keeps: a server that stays up
// while a developer edits it must not hold every edit it ever served.
const historyDepth = 1024

// History is the class's undo/redo stack. The paper's DL Publishers detect
// changes "by monitoring the JPie undo/redo stack"; in this runtime every
// committed edit lands here, in commit order, and also produces a
// ChangeEvent. Undo and redo swap a step's records through the same write
// path as an edit, so they commit (and announce) the change too, but are
// not recorded themselves. It keeps the newest 1024 edits; older ones can
// no longer be undone.
//
// The stack is guarded by the class's mutex: an edit pushes its step in
// the same critical section that commits it.
type History struct {
	class  *Class
	stack  []step
	cursor int // number of applied steps; stack[cursor:] are redoable
}

// push records a freshly applied edit, truncating any redo tail and, at
// historyDepth, dropping the oldest edit. Dropping reslices the stack, so
// append copies it only when the backing array runs out: amortized O(1).
// Caller holds the class's mutex.
func (h *History) push(s step) {
	clear(h.stack[h.cursor:])
	h.stack = h.stack[:h.cursor]
	if len(h.stack) == historyDepth {
		h.stack[0] = step{} // free it now, not when the array is next regrown
		h.stack = h.stack[1:]
	}
	h.stack = append(h.stack, s)
	h.cursor = len(h.stack)
}

// Len returns the number of edits currently on the stack (applied + redoable).
func (h *History) Len() int {
	h.class.mu.RLock()
	defer h.class.mu.RUnlock()
	return len(h.stack)
}

// UndoDepth returns how many edits can be undone.
func (h *History) UndoDepth() int {
	h.class.mu.RLock()
	defer h.class.mu.RUnlock()
	return h.cursor
}

// RedoDepth returns how many edits can be redone.
func (h *History) RedoDepth() int {
	h.class.mu.RLock()
	defer h.class.mu.RUnlock()
	return len(h.stack) - h.cursor
}

// Undo reverts the most recent applied edit by putting back the record it
// replaced. The reversal is committed to the class (bumping versions and
// notifying listeners) but is not re-recorded; instead the cursor moves
// back so the edit can be redone.
func (h *History) Undo() error {
	h.class.mu.Lock()
	if h.cursor == 0 {
		h.class.mu.Unlock()
		return ErrNothingToUndo
	}
	h.cursor--
	s := h.stack[h.cursor]
	h.class.put(s.id, s.before, "undo "+s.op, false)
	return nil
}

// Redo re-applies the most recently undone edit by putting its record again.
func (h *History) Redo() error {
	h.class.mu.Lock()
	if h.cursor == len(h.stack) {
		h.class.mu.Unlock()
		return ErrNothingToRedo
	}
	s := h.stack[h.cursor]
	h.cursor++
	h.class.put(s.id, s.after, "redo "+s.op, false)
	return nil
}

// Ops returns the descriptions of the recorded edits, oldest first.
func (h *History) Ops() []string {
	h.class.mu.RLock()
	defer h.class.mu.RUnlock()
	ops := make([]string, len(h.stack))
	for i, s := range h.stack {
		ops[i] = s.op
	}
	return ops
}
