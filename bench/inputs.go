package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"

	"livedev/internal/dyn"
	"livedev/internal/ifsvr"
	"livedev/internal/repl"
	"livedev/internal/static"
)

// A binding is one of the four SDE call stacks the benchmark drives. The
// order is fixed: it is the column order of every table and the rotation
// base of every interleaved round.
type binding struct {
	// tech is the registered technology name (Manager.Register argument).
	tech string
	// key prefixes the binding's metric names ("soap_p50_us").
	key string
	// docPath is where the binding publishes a class's interface document
	// on the Interface Server, %s being the class name.
	docPath string
}

var bindings = []binding{
	{tech: "SOAP", key: "soap", docPath: "/wsdl/%s.wsdl"},
	{tech: "CORBA", key: "corba", docPath: "/idl/%s.idl"},
	{tech: "JSON", key: "json", docPath: "/jsonif/%s.json"},
	{tech: "H2B", key: "h2b", docPath: "/h2bif/%s.h2b"},
}

// className is the dynamic class deployed for a binding. One class per
// binding keeps the four published documents (WSDL, IDL, JSON, h2b
// descriptor) independent, so an edit to one never republishes another.
//
// The name is "Bench" + tech with the smallest numeric suffix that puts the
// binding's document in replication shard 0. A follower tails each shard on
// a connection of its own, and when commits to documents of different
// shards reach it out of epoch order its held watches skip a version
// (README.md, "Found on the way"). A stall of a few edit intervals
// anywhere — the follower, or the generator, which then sends a burst — is
// enough, and the run ends incorrect through no fault of the commit under
// test. With the four documents in one shard every commit of a run reaches
// the follower on one connection, in epoch order; the other shards' tails
// stay connected and idle. sameShard checks what the server child
// actually published.
func className(b binding) string {
	for n := 0; ; n++ {
		name := "Bench" + b.tech
		if n > 0 {
			name += strconv.Itoa(n)
		}
		if ifsvr.ShardOf(fmt.Sprintf(b.docPath, name), repl.DefaultTailShards) == 0 {
			return name
		}
	}
}

// sameShard reports whether the four interface documents a server child
// announced share a replication shard, as className intends.
func sameShard(h hello) bool {
	for _, b := range bindings {
		if ifsvr.ShardOf(h.Bindings[b.tech].DocPath, repl.DefaultTailShards) != 0 {
			return false
		}
	}
	return true
}

const (
	// echoMethods is the number of string-echo methods on every class;
	// with the bulk echo that makes the 8-method class the issue names.
	echoMethods = 7
	// bulkMethod indexes the sequence-echo method in inputs.methods.
	bulkMethod = echoMethods
	// smallBytes is the calls_small payload: the paper's Table 1 echo.
	smallBytes = 64
	// bulkElems sizes the calls_bulk payload (≈16 KB of SOAP on the wire).
	bulkElems = 256
)

// itemType is the calls_bulk element: struct{int32, string(16), float64}.
var itemType = dyn.MustStructOf("BenchItem",
	dyn.StructField{Name: "id", Type: dyn.Int32T},
	dyn.StructField{Name: "tag", Type: dyn.StringT},
	dyn.StructField{Name: "score", Type: dyn.Float64T},
)

var itemSeqType = dyn.SequenceOf(itemType)

// inputs is everything the seed decides. The server child receives only
// methods (through its spec); payloads and the edit order stay in the
// load generator.
type inputs struct {
	// methods are the initial method names: methods[0:echoMethods] echo a
	// string, methods[bulkMethod] echoes a sequence<BenchItem>.
	methods []string
	small   dyn.Value
	bulk    dyn.Value
	names   *nameGen
	rng     *rand.Rand
}

// nameGen draws method names that never repeat within a run, so every
// rename produces an interface hash the server's document cache has not
// seen and the generator really runs.
type nameGen struct {
	rng  *rand.Rand
	used map[string]bool
}

func (g *nameGen) next() string {
	for {
		b := []byte("op")
		for i := 0; i < 8; i++ {
			b = append(b, byte('a'+g.rng.IntN(26)))
		}
		if s := string(b); !g.used[s] {
			g.used[s] = true
			return s
		}
	}
}

const alnum = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

func randString(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = alnum[rng.IntN(len(alnum))]
	}
	return string(b)
}

// newInputs derives every generated input from seed. Separate PCG streams
// keep the method names independent of how many payload bytes were drawn.
func newInputs(seed uint64) *inputs {
	in := &inputs{}
	in.names = &nameGen{rng: rand.New(rand.NewPCG(seed, 1)), used: map[string]bool{}}
	for i := 0; i <= echoMethods; i++ {
		in.methods = append(in.methods, in.names.next())
	}
	prng := rand.New(rand.NewPCG(seed, 2))
	in.small = dyn.StringValue(randString(prng, smallBytes))
	elems := make([]dyn.Value, bulkElems)
	for i := range elems {
		elems[i] = dyn.MustStructValue(itemType,
			dyn.Int32Value(prng.Int32()),
			dyn.StringValue(randString(prng, 16)),
			// Multiples of 1/1024 print exactly in every text codec, so
			// the echo check can demand equality.
			dyn.Float64Value(float64(prng.Int32())/1024),
		)
	}
	in.bulk = dyn.MustSequenceValue(itemType, elems...)
	in.rng = rand.New(rand.NewPCG(seed, 3))
	return in
}

// editStep is one rename: on which binding's class, which method slot,
// and the fresh name it gets.
type editStep struct {
	binding int
	slot    int
	newName string
}

// editPlan tracks each class's current method names on the generator side
// and draws the seeded edit order: every block of len(bindings) steps is a
// fresh permutation of the bindings, so all four documents are edited at
// the same rate, and the slot is drawn uniformly from the echo methods.
type editPlan struct {
	in      *inputs
	current [][]string // [binding][slot] -> current name
	block   []int
}

func newEditPlan(in *inputs) *editPlan {
	p := &editPlan{in: in}
	for range bindings {
		p.current = append(p.current, append([]string(nil), in.methods...))
	}
	return p
}

func (p *editPlan) next() editStep {
	if len(p.block) == 0 {
		p.block = p.in.rng.Perm(len(bindings))
	}
	b := p.block[0]
	p.block = p.block[1:]
	return p.nextOn(b)
}

// nextOn draws the next rename for one binding (the stale_recovery
// workload walks the bindings itself).
func (p *editPlan) nextOn(b int) editStep {
	return editStep{binding: b, slot: p.in.rng.IntN(echoMethods), newName: p.in.names.next()}
}

// nameAt is the name the step's slot has now: the one the rename replaces.
func (p *editPlan) nameAt(s editStep) string { return p.current[s.binding][s.slot] }

// apply records a rename and returns the name the slot had before.
func (p *editPlan) apply(s editStep) (old string) {
	old = p.nameAt(s)
	p.current[s.binding][s.slot] = s.newName
	return old
}

func echoBody(_ *dyn.Instance, args []dyn.Value) (dyn.Value, error) { return args[0], nil }

// buildClass builds the benchmark's server class: echoMethods string
// echoes plus one sequence echo, all distributed. The server child deploys
// it; the traced pass instantiates an identical copy to replay captured
// requests through the server-side stages in-process.
func buildClass(name string, methods []string) (*dyn.Class, error) {
	if len(methods) != echoMethods+1 {
		return nil, fmt.Errorf("bench: class needs %d method names, got %d", echoMethods+1, len(methods))
	}
	c := dyn.NewClass(name)
	for i, m := range methods {
		t := dyn.StringT
		if i == bulkMethod {
			t = itemSeqType
		}
		if _, err := c.AddMethod(dyn.MethodSpec{
			Name:        m,
			Params:      []dyn.Param{{Name: "v", Type: t}},
			Result:      t,
			Distributed: true,
			Body:        echoBody,
		}); err != nil {
			return nil, fmt.Errorf("bench: adding method %s: %w", m, err)
		}
	}
	return c, nil
}

// staticOps is the same interface as a precompiled operation table, for
// the two internal/static control servers.
func staticOps(methods []string) []static.Op {
	ops := make([]static.Op, len(methods))
	for i, m := range methods {
		t := dyn.StringT
		if i == bulkMethod {
			t = itemSeqType
		}
		ops[i] = static.Op{
			Name:   m,
			Params: []dyn.Param{{Name: "v", Type: t}},
			Result: t,
			Fn:     func(args []dyn.Value) (dyn.Value, error) { return args[0], nil },
		}
	}
	return ops
}

// methodSig is the client-side signature of method slot i.
func methodSig(name string, slot int) dyn.MethodSig {
	t := dyn.StringT
	if slot == bulkMethod {
		t = itemSeqType
	}
	return dyn.MethodSig{Name: name, Params: []dyn.Param{{Name: "v", Type: t}}, Result: t}
}
