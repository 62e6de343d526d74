package main

import (
	"reflect"
	"testing"

	"livedev/internal/cdr"
)

// draw collects everything a seed decides: payload bytes, method names,
// and a stretch of the edit order.
func draw(t *testing.T, seed uint64) (payload []byte, methods []string, order []editStep) {
	t.Helper()
	in := newInputs(seed)
	e := cdr.NewEncoder(cdr.BigEndian)
	if err := cdr.EncodeValue(e, in.small); err != nil {
		t.Fatal(err)
	}
	if err := cdr.EncodeValue(e, in.bulk); err != nil {
		t.Fatal(err)
	}
	plan := newEditPlan(in)
	for i := 0; i < 64; i++ {
		s := plan.next()
		plan.apply(s)
		order = append(order, s)
	}
	return append([]byte(nil), e.Bytes()...), in.methods, order
}

func TestSeedDeterminism(t *testing.T) {
	p1, m1, o1 := draw(t, 42)
	p2, m2, o2 := draw(t, 42)
	if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(m1, m2) || !reflect.DeepEqual(o1, o2) {
		t.Error("the same seed produced different inputs")
	}
	p3, m3, o3 := draw(t, 43)
	if reflect.DeepEqual(p1, p3) {
		t.Error("different seeds produced the same payload bytes")
	}
	if reflect.DeepEqual(m1, m3) {
		t.Error("different seeds produced the same method names")
	}
	if reflect.DeepEqual(o1, o3) {
		t.Error("different seeds produced the same edit order")
	}
}

func TestInputShapes(t *testing.T) {
	in := newInputs(7)
	if len(in.methods) != echoMethods+1 {
		t.Fatalf("%d method names", len(in.methods))
	}
	if got := len(in.small.Str()); got != smallBytes {
		t.Errorf("small payload is %d bytes", got)
	}
	if got := in.bulk.Len(); got != bulkElems {
		t.Errorf("bulk payload has %d elements", got)
	}
	// Every block of four edits touches each binding once, and names never
	// repeat, so each rename is a new interface hash.
	plan := newEditPlan(in)
	seen := map[string]bool{}
	for _, m := range in.methods {
		seen[m] = true
	}
	for block := 0; block < 8; block++ {
		hit := map[int]bool{}
		for i := 0; i < len(bindings); i++ {
			s := plan.next()
			old := plan.apply(s)
			if !seen[old] || seen[s.newName] {
				t.Fatalf("rename %s -> %s: old unknown or new reused", old, s.newName)
			}
			seen[s.newName] = true
			hit[s.binding] = true
		}
		if len(hit) != len(bindings) {
			t.Fatalf("block %d edited bindings %v", block, hit)
		}
	}
	if _, err := buildClass("X", in.methods); err != nil {
		t.Error(err)
	}
}

// TestClassDocumentsShareAShard starts a real server child and checks that
// the four interface documents it publishes fall in one replication shard,
// which is what className promises the edit path.
func TestClassDocumentsShareAShard(t *testing.T) {
	inTempDir(t)
	cl, err := startCluster(newInputs(1), false)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.stop()
	if !sameShard(cl.server.hello) {
		t.Errorf("documents are spread over several replication shards: %+v", cl.server.hello.Bindings)
	}
}
