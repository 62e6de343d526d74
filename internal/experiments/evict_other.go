//go:build !linux

package experiments

// dropFileCache is a no-op where page-cache eviction is unsupported: the
// recovery trials then measure warm-cache replay.
func dropFileCache(string) error { return nil }

// drainWriteback is a no-op without sync(2).
func drainWriteback() {}
