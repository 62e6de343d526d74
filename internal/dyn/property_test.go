package dyn

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// editScript is a reproducible random edit sequence for property tests.
type editScript struct {
	seed  int64
	steps int
}

// applyRandomEdit performs one random edit on the class, tolerating
// expected failures (duplicate names, missing members). A body it sets
// returns the edit's step number, which names it in methodRecords.
func applyRandomEdit(r *rand.Rand, c *Class, step int) {
	c.mu.RLock()
	methodIDs := slices.Sorted(maps.Keys(c.methods))
	c.mu.RUnlock()
	pick := func() (MemberID, bool) {
		if len(methodIDs) == 0 {
			return 0, false
		}
		return methodIDs[r.Intn(len(methodIDs))], true
	}
	types := []*Type{Int32T, Int64T, StringT, Float64T, Boolean, SequenceOf(Int32T)}
	switch r.Intn(7) {
	case 0:
		_, _ = c.AddMethod(MethodSpec{
			Name:        fmt.Sprintf("m%d_%d", step, r.Intn(10)),
			Params:      []Param{{Name: "p", Type: types[r.Intn(len(types))]}},
			Result:      types[r.Intn(len(types))],
			Distributed: r.Intn(2) == 0,
		})
	case 1:
		if id, ok := pick(); ok {
			_ = c.RemoveMethod(id)
		}
	case 2:
		if id, ok := pick(); ok {
			_ = c.RenameMethod(id, fmt.Sprintf("r%d_%d", step, r.Intn(10)))
		}
	case 3:
		if id, ok := pick(); ok {
			n := r.Intn(3)
			params := make([]Param, n)
			for i := range params {
				params[i] = Param{Name: fmt.Sprintf("p%d", i), Type: types[r.Intn(len(types))]}
			}
			_ = c.SetParams(id, params)
		}
	case 4:
		if id, ok := pick(); ok {
			_ = c.SetResult(id, types[r.Intn(len(types))])
		}
	case 5:
		if id, ok := pick(); ok {
			_ = c.SetDistributed(id, r.Intn(2) == 0)
		}
	case 6:
		if id, ok := pick(); ok {
			_ = c.SetBody(id, func(*Instance, []Value) (Value, error) { return Int64Value(int64(step)), nil })
		}
	}
}

// methodRecord is a method record in comparable form. The body is named
// by what it returns: the step that set it, or -1 for no body.
type methodRecord struct {
	name        string
	params      []Param
	result      *Type
	distributed bool
	body        int64
}

// methodRecords reads every method record of the class, by member ID.
func methodRecords(c *Class) map[MemberID]methodRecord {
	c.mu.RLock()
	defer c.mu.RUnlock()
	recs := make(map[MemberID]methodRecord, len(c.methods))
	for id, m := range c.methods {
		body := int64(-1)
		if m.body != nil {
			v, _ := m.body(nil, nil)
			body = v.Int64()
		}
		recs[id] = methodRecord{m.name, m.params, m.result, m.distributed, body}
	}
	return recs
}

// TestUndoAllRestoresInitialInterface: apply a random edit script, then
// undo everything — the distributed interface descriptor must equal the
// initial one; redo everything — it must equal the final one. This is the
// JPie property that makes history monitoring a sound basis for the
// publisher. At every undo and redo depth the whole method records must
// be the ones the class had at that depth on the way forward: member IDs,
// names, signatures, the distributed flag and bodies, of non-distributed
// methods too.
func TestUndoAllRestoresInitialInterface(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 60,
		Values: func(vs []reflect.Value, r *rand.Rand) {
			vs[0] = reflect.ValueOf(editScript{seed: r.Int63(), steps: 5 + r.Intn(40)})
		},
	}
	f := func(s editScript) bool {
		c := NewClass("P")
		// A seed method so edits have something to chew on.
		if _, err := c.AddMethod(MethodSpec{Name: "seed", Result: Int32T, Distributed: true}); err != nil {
			return false
		}
		initial := c.Interface().Hash()
		initialDepth := c.History().UndoDepth()
		atDepth := map[int]map[MemberID]methodRecord{initialDepth: methodRecords(c)}

		r := rand.New(rand.NewSource(s.seed))
		for i := 0; i < s.steps; i++ {
			applyRandomEdit(r, c, i)
			atDepth[c.History().UndoDepth()] = methodRecords(c)
		}
		final := c.Interface().Hash()
		restored := func(step string) bool {
			d := c.History().UndoDepth()
			if got := methodRecords(c); !reflect.DeepEqual(got, atDepth[d]) {
				t.Logf("seed %d, %s to depth %d: records %+v, want %+v", s.seed, step, d, got, atDepth[d])
				return false
			}
			return true
		}

		// Undo back to the initial state.
		for c.History().UndoDepth() > initialDepth {
			if err := c.History().Undo(); err != nil || !restored("undo") {
				return false
			}
		}
		if c.Interface().Hash() != initial {
			return false
		}
		// Redo forward to the final state.
		for c.History().RedoDepth() > 0 {
			if err := c.History().Redo(); err != nil || !restored("redo") {
				return false
			}
		}
		return c.Interface().Hash() == final
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestInterfaceVersionMonotoneUnderRandomEdits: interface versions never
// decrease, even across undo (undo is itself a new change).
func TestInterfaceVersionMonotoneUnderRandomEdits(t *testing.T) {
	c := NewClass("Mono")
	if _, err := c.AddMethod(MethodSpec{Name: "seed", Result: Int32T, Distributed: true}); err != nil {
		t.Fatal(err)
	}
	var last uint64
	c.Subscribe(func(ev ChangeEvent) {
		if ev.InterfaceVersion < last {
			t.Errorf("interface version went backwards: %d -> %d", last, ev.InterfaceVersion)
		}
		last = ev.InterfaceVersion
	})
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		applyRandomEdit(r, c, i)
		if i%7 == 0 {
			_ = c.History().Undo()
		}
		if i%11 == 0 {
			_ = c.History().Redo()
		}
	}
}

// TestDescriptorHashMatchesEquality: two descriptors are Equal iff their
// hashes match, across random classes.
func TestDescriptorHashMatchesEquality(t *testing.T) {
	build := func(seed int64, steps int) InterfaceDescriptor {
		c := NewClass("H")
		if _, err := c.AddMethod(MethodSpec{Name: "seed", Result: Int32T, Distributed: true}); err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < steps; i++ {
			applyRandomEdit(r, c, i)
		}
		return c.Interface()
	}
	f := func(seed int64, stepsRaw uint8) bool {
		steps := int(stepsRaw % 30)
		d1 := build(seed, steps)
		d2 := build(seed, steps) // same script → same interface
		if !d1.Equal(d2) || d1.Hash() != d2.Hash() {
			return false
		}
		d3 := build(seed+1, steps+1)
		// Different scripts usually differ; when they do, hashes differ.
		if d1.Equal(d3) != (d1.Hash() == d3.Hash()) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// ---- Representation invariants of Value ----

// TestValueIsThreeWords: the layout the codecs' cost rests on, and the
// guarantee that == on values does not compile.
func TestValueIsThreeWords(t *testing.T) {
	vt := reflect.TypeOf(Value{})
	if got, want := vt.Size(), 3*reflect.TypeOf(uintptr(0)).Size(); got != want {
		t.Errorf("Value is %d bytes, want three words (%d)", got, want)
	}
	if vt.Comparable() {
		t.Error("Value is comparable: == would compare string and slice pointers, not contents")
	}
}

// TestMismatchedAccessorsReturnZero: an accessor asked for a payload the
// value's kind does not carry answers its zero, never a reinterpretation of
// another kind's bits. The two integer kinds read each other (sign-extended
// up, truncated down) and so do the two float kinds, as they always have;
// Len counts sequence elements and struct fields alike.
func TestMismatchedAccessorsReturnZero(t *testing.T) {
	pt := MustStructOf("P", StructField{Name: "s", Type: StringT}, StructField{Name: "n", Type: Int64T})
	type payload struct {
		b   bool
		c   rune
		i32 int32
		i64 int64
		f32 float32
		f64 float64
		s   string
		n   int
	}
	cases := []struct {
		v    Value
		want payload
	}{
		{Value{}, payload{}},
		{VoidValue(), payload{}},
		{BoolValue(true), payload{b: true}},
		{BoolValue(false), payload{}},
		{CharValue('λ'), payload{c: 'λ'}},
		{CharValue(-1), payload{c: -1}},
		{Int32Value(-7), payload{i32: -7, i64: -7}},
		{Int64Value(1<<40 | 5), payload{i32: 5, i64: 1<<40 | 5}},
		{Int64Value(-1), payload{i32: -1, i64: -1}},
		{Float32Value(1.5), payload{f32: 1.5, f64: 1.5}},
		{Float64Value(1e300), payload{f32: float32(math.Inf(1)), f64: 1e300}},
		{Float64Value(0.1), payload{f32: float32(0.1), f64: 0.1}},
		{StringValue("seven b"), payload{s: "seven b"}},
		{StringValue(""), payload{}},
		{MustSequenceValue(StringT, StringValue("a"), StringValue("b"), StringValue("c")), payload{n: 3}},
		{MustSequenceValue(Boolean), payload{}},
		{MustStructValue(pt, StringValue("x"), Int64Value(9)), payload{n: 2}},
		{Zero(pt), payload{n: 2}},
	}
	for _, tc := range cases {
		v := tc.v
		got := payload{v.Bool(), v.Char(), v.Int32(), v.Int64(), v.Float32(), v.Float64(), v.Str(), v.Len()}
		if got != tc.want {
			t.Errorf("%s %v: accessors read %+v, want %+v", v.Type(), v, got, tc.want)
		}
		if es := v.Elems(); len(es) != tc.want.n {
			t.Errorf("%s %v: Elems() has %d values, want %d", v.Type(), v, len(es), tc.want.n)
		}
		if _, ok := v.Field("s"); ok != (v.Type().Kind() == KindStruct) {
			t.Errorf("%s %v: Field(\"s\") found = %v", v.Type(), v, ok)
		}
	}
}

// TestFloatEqualityIsNumeric: Equal compares floats as numbers although the
// payload word holds their bits — NaN differs from itself, the two zeros
// are equal — at either width and inside a composite.
func TestFloatEqualityIsNumeric(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	pt := MustStructOf("F", StructField{Name: "f", Type: Float64T})
	for _, tc := range []struct {
		a, b Value
		want bool
	}{
		{Float64Value(nan), Float64Value(nan), false},
		{Float32Value(float32(nan)), Float32Value(float32(nan)), false},
		{Float64Value(negZero), Float64Value(0), true},
		{Float32Value(float32(negZero)), Float32Value(0), true},
		{Float64Value(1), Float32Value(1), false}, // different types
		{MustStructValue(pt, Float64Value(nan)), MustStructValue(pt, Float64Value(nan)), false},
		{MustSequenceValue(Float64T, Float64Value(negZero)), MustSequenceValue(Float64T, Float64Value(0)), true},
	} {
		if got := tc.a.Equal(tc.b); got != tc.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
	if v := Float64Value(negZero); !math.Signbit(v.Float64()) || v.String() != "-0" {
		t.Errorf("-0 came back as %v (%s)", v.Float64(), v)
	}
}

// TestEmptyPayloadsRoundTrip: the empty string and the empty sequence have
// nothing for the pointer word to point at, however they were made.
func TestEmptyPayloadsRoundTrip(t *testing.T) {
	backing := "backing"
	for _, s := range []string{"", backing[:0], backing[len(backing):], string([]byte{})} {
		v := StringValue(s)
		if v.Str() != "" || v.Len() != 0 || v.String() != `""` || !v.Equal(Zero(StringT)) || !Zero(StringT).Equal(v) {
			t.Errorf("empty string value reads %q, renders %s", v.Str(), v)
		}
	}
	adopted, err := AdoptSequence(Int32T, make([]Value, 0, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Value{MustSequenceValue(Int32T), adopted, Zero(SequenceOf(Int32T))} {
		if v.Len() != 0 || len(v.Elems()) != 0 || v.String() != "[]" || !v.Equal(MustSequenceValue(Int32T)) {
			t.Errorf("empty sequence has %d elements, renders %s", v.Len(), v)
		}
		if v.Equal(MustSequenceValue(Int64T)) {
			t.Error("empty sequences of different element types are equal")
		}
	}
}

// TestSlabSlicesDoNotAlias: field slices carved from one chunk are
// neighbours in memory and nothing else. Each is zeroed and exactly as long
// as asked with no spare capacity, so neither writing through one after
// adopting it (which the Adopt contract forbids, and a decoder bug could do)
// nor appending to it can be observed through a sibling.
func TestSlabSlicesDoNotAlias(t *testing.T) {
	pt := MustStructOf("P", StructField{Name: "a", Type: Int32T}, StructField{Name: "b", Type: StringT})
	for _, grow := range []int{0, 6, 2} { // chunks from Take alone, one exact chunk, one too small
		var slab Slab
		slab.Grow(grow)
		var slices [3][]Value
		var structs [3]Value
		for i := range slices {
			s := slab.Take(2)
			if len(s) != 2 || cap(s) != 2 {
				t.Fatalf("Grow(%d): Take(2) has len %d cap %d", grow, len(s), cap(s))
			}
			for _, z := range s {
				if z.Type() != Void || z.Len() != 0 {
					t.Fatalf("Grow(%d): Take returned a used value %v", grow, z)
				}
			}
			s[0], s[1] = Int32Value(int32(i)), StringValue(fmt.Sprint("field of ", i))
			slices[i] = s
			var err error
			if structs[i], err = AdoptStruct(pt, s); err != nil {
				t.Fatal(err)
			}
		}
		want := [3]string{structs[0].String(), structs[1].String(), structs[2].String()}
		slices[1][0], slices[1][1] = Int32Value(99), StringValue("overwritten")
		_ = append(slices[1], Int32Value(100), StringValue("appended"))
		_ = append(slices[0], Int32Value(101))
		if got := structs[1].String(); got != `P{a:99,b:"overwritten"}` {
			t.Errorf("Grow(%d): the adopted slice is not the value's own: %s", grow, got)
		}
		for _, i := range []int{0, 2} {
			if got := structs[i].String(); got != want[i] {
				t.Errorf("Grow(%d): struct %d changed from %s to %s through a sibling's slice", grow, i, want[i], got)
			}
		}
	}
}

// TestSlabChunks pins how many chunks a decode costs: one when the count
// was known up front, a logarithmic number when it was not, and exactly the
// fields of a lone struct either way.
func TestSlabChunks(t *testing.T) {
	take := func(grow, n, each int) float64 {
		return testing.AllocsPerRun(20, func() {
			var slab Slab
			slab.Grow(grow)
			for range n {
				slab.Take(each)
			}
		})
	}
	if got := take(256*3, 256, 3); got != 1 {
		t.Errorf("256 structs after Grow(768): %v chunks, want 1", got)
	}
	if got := take(0, 256, 3); got != 9 {
		t.Errorf("256 structs without Grow: %v chunks, want 9 (3 values doubling to 768)", got)
	}
	if got := take(0, 1, 3); got != 1 {
		t.Errorf("a lone struct: %v chunks, want 1", got)
	}
	var slab Slab
	if slab.Take(3); len(slab.free) != 0 {
		t.Errorf("a lone struct's chunk has %d values to spare, want none", len(slab.free))
	}
}

// TestSlabStringChunks pins the string side: a lone string costs one
// allocation of its own length, chunks double from the first string's length
// but never past the input left, and every string keeps its own bytes.
func TestSlabStringChunks(t *testing.T) {
	tag := []byte("sixteen-byte-tag")
	if got := testing.AllocsPerRun(20, func() {
		var slab Slab
		slab.CopyString(tag, 0)
	}); got != 1 {
		t.Errorf("a lone string: %v chunks, want 1", got)
	}
	var slab Slab
	if slab.CopyString(tag, 0); len(slab.text) != 0 || slab.texts != len(tag) {
		t.Errorf("a lone string's chunk is %d bytes with %d to spare, want %d and none", slab.texts, len(slab.text), len(tag))
	}
	if got := testing.AllocsPerRun(20, func() {
		var slab Slab
		for range 256 {
			slab.CopyString(tag, 1<<20)
		}
	}); got != 9 {
		t.Errorf("256 tags: %v chunks, want 9 (16 bytes doubling to 4 KiB)", got)
	}
	slab = Slab{}
	var strs []string
	for i, rest := 0, 14; rest >= 0; i, rest = i+1, rest-2 { // the input holds nothing else
		b, before := []byte(fmt.Sprintf("%02d", i)), slab.texts
		strs = append(strs, slab.CopyString(b, rest))
		b[0] = 'x' // the input buffer is recycled: the copy must not see it
		if slab.texts != before && slab.texts > len(b)+rest {
			t.Fatalf("string %d: a %d-byte chunk with %d bytes of input left", i, slab.texts, len(b)+rest)
		}
	}
	for i, s := range strs {
		if want := fmt.Sprintf("%02d", i); s != want {
			t.Errorf("string %d reads %q, want %q", i, s, want)
		}
	}
	if slab.CopyString(nil, 0) != "" {
		t.Error("an empty string is not empty")
	}
}
