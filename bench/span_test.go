package main

import (
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	for _, c := range []struct {
		name string
		kids [][2]int64
		want time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint children", [][2]int64{{110, 120}, {150, 170}}, 70},
		{"overlapping children are covered once", [][2]int64{{110, 150}, {130, 160}}, 50},
		{"child given out of order", [][2]int64{{150, 170}, {110, 120}}, 70},
		{"child sticking out is clipped", [][2]int64{{90, 110}, {190, 250}}, 80},
		{"nested duplicates", [][2]int64{{110, 190}, {120, 130}}, 20},
	} {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSelfTimesGroupsByRoot(t *testing.T) {
	rec := newRecorder(8)
	root := rec.begin(1, "call.x", -1)
	enc := rec.begin(1, "encode", root)
	inner := rec.begin(1, "cdr.encode", enc)
	rec.end(inner)
	rec.end(enc)
	rec.end(root)
	other := rec.begin(1, "server_replay.x", -1)
	dec := rec.begin(1, "cdr.encode", other)
	rec.end(dec)
	rec.end(other)
	// Make the intervals exact.
	rec.spans[root].Start, rec.spans[root].End = 0, 100
	rec.spans[enc].Start, rec.spans[enc].End = 10, 60
	rec.spans[inner].Start, rec.spans[inner].End = 20, 50
	rec.spans[other].Start, rec.spans[other].End = 200, 300
	rec.spans[dec].Start, rec.spans[dec].End = 210, 220

	self := selfTimes(rec.spans)
	check := func(root, name string, want time.Duration) {
		t.Helper()
		got := self[root][name]
		if len(got) != 1 || got[0] != want {
			t.Errorf("self[%s][%s] = %v, want [%d]", root, name, got, want)
		}
	}
	check("call.x", "call.x", 50)     // 100 minus the 50 its child covers
	check("call.x", "encode", 20)     // 50 minus the nested 30
	check("call.x", "cdr.encode", 30) // a leaf keeps all of its time
	check("server_replay.x", "cdr.encode", 10)
	check("server_replay.x", "server_replay.x", 90)

	// A nil recorder records nothing and does not panic: the untraced path.
	var off *recorder
	off.end(off.begin(1, "x", -1))
}

func TestFirstOpsRemapsParents(t *testing.T) {
	spans := []span{
		{Op: 5, Name: "root", Parent: -1},
		{Op: 5, Name: "kid", Parent: 0},
		{Op: 1, Name: "root", Parent: -1},
		{Op: 1, Name: "kid", Parent: 2},
	}
	got := firstOps(spans, 2)
	if len(got) != 2 || got[0].Parent != -1 || got[1].Parent != 0 || got[1].Op != 1 {
		t.Errorf("firstOps = %+v", got)
	}
}
