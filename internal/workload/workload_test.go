package workload

import (
	"testing"
	"time"

	"livedev/internal/dyn"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultTrace(42)
	a := Generate(cfg)
	b := Generate(cfg)
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// A different seed gives a different trace.
	c := Generate(DefaultTrace(43))
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds should give different traces")
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := TraceConfig{
		Seed:       7,
		Bursts:     10,
		BurstLen:   4,
		IntraBurst: 100 * time.Millisecond,
		ThinkTime:  2 * time.Second,
	}
	trace := Generate(cfg)
	if len(trace) < cfg.Bursts {
		t.Fatalf("trace too short: %d", len(trace))
	}
	// Delays stay within 50%-150% of their configured means.
	longBreaks := 0
	for _, e := range trace {
		if e.Delay >= time.Second {
			longBreaks++
		}
		if e.Delay > 3*time.Second {
			t.Errorf("delay %v exceeds 150%% of think time", e.Delay)
		}
	}
	if longBreaks != cfg.Bursts {
		t.Errorf("expected %d burst-leading think times, got %d", cfg.Bursts, longBreaks)
	}
	// Zero burst length still produces at least one edit per burst.
	tiny := Generate(TraceConfig{Seed: 1, Bursts: 2})
	if len(tiny) < 2 {
		t.Errorf("tiny trace = %d edits", len(tiny))
	}
}

func TestEditKindString(t *testing.T) {
	kinds := []EditKind{EditRename, EditSetParams, EditSetResult, EditToggleDistributed, EditBody, EditKind(0)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("empty string for kind %d", int(k))
		}
	}
}

func TestApplyEditsDriveInterfaceVersion(t *testing.T) {
	c := dyn.NewClass("W")
	id, err := c.AddMethod(dyn.MethodSpec{Name: "op", Result: dyn.Int32T, Distributed: true})
	if err != nil {
		t.Fatal(err)
	}
	trace := Generate(DefaultTrace(11))
	interfaceEdits := 0
	for i, e := range trace {
		affecting, err := Apply(c, id, e, i)
		if err != nil {
			t.Fatalf("apply step %d (%v): %v", i, e.Kind, err)
		}
		if affecting {
			interfaceEdits++
		}
	}
	if interfaceEdits == 0 {
		t.Fatal("trace contained no interface edits")
	}
	if c.InterfaceVersion() == 0 {
		t.Error("interface version should have advanced")
	}
	if _, err := Apply(c, id, Edit{Kind: EditKind(99)}, 0); err == nil {
		t.Error("unknown kind should fail")
	}
}
