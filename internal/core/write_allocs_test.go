//go:build !race

package core

import (
	"testing"

	"livedev/internal/dyn"
)

// TestWriteAllocsForcedNoop pins the rogue-client fast path of Section
// 5.7: a stale call against an idle publisher whose published interface is
// current runs EnsureCurrent's no-op branch, which must take no store lock
// and allocate nothing.
func TestWriteAllocsForcedNoop(t *testing.T) {
	mgr, err := NewManager(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mgr.Close() }()
	class := dyn.NewClass("Pin")
	if _, err := class.AddMethod(dyn.MethodSpec{Name: "op", Result: dyn.Int32T, Distributed: true}); err != nil {
		t.Fatal(err)
	}
	srv, err := mgr.Register(class, TechSOAP)
	if err != nil {
		t.Fatal(err)
	}
	pub := srv.Publisher()
	pub.EnsureCurrent()
	before := pub.Stats().ForcedNoop
	if allocs := testing.AllocsPerRun(200, pub.EnsureCurrent); allocs != 0 {
		t.Errorf("an idle, current EnsureCurrent allocates %.1f times, want 0", allocs)
	}
	if got := pub.Stats().ForcedNoop - before; got != 201 {
		t.Errorf("%d of 201 EnsureCurrent calls took the no-op path", got)
	}
}
