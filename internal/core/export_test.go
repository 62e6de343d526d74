package core

// SetStaleHook makes every stale call s serves run fn once the call has
// been refused and before the forced publication (Section 5.7) — the point
// between processing a call and replying "non-existent method". Set it
// before the first call.
func (s *ClassServer) SetStaleHook(fn func()) { s.onStale = fn }
