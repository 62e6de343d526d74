package h1

import "time"

// SetCeiling shortens the no-deadline ceiling for a test; the returned
// function restores it.
func SetCeiling(d time.Duration) (restore func()) {
	old := ceiling
	ceiling = d
	return func() { ceiling = old }
}
