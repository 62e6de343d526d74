package core

import "net/http"

// SetStaleHook makes every stale call s serves run fn once the call has
// been refused and before the forced publication (Section 5.7) — the point
// between processing a call and replying "non-existent method". Set it
// before the first call.
func (s *ClassServer) SetStaleHook(fn func()) { s.onStale = fn }

// WriterWaiting reports whether a writer holds s's gate or waits for it:
// a stale call's forced publication, say.
func (s *ClassServer) WriterWaiting() bool {
	if s.gate.TryRLock() {
		s.gate.RUnlock()
		return false
	}
	return true
}

// EndpointHandler returns the handler m's HTTP endpoint serves.
func EndpointHandler(m *Manager) http.Handler { return m.httpMux }
