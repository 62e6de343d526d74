package dyn

import (
	"errors"
	"slices"
	"sync"
	"testing"
)

func addBody(self *Instance, args []Value) (Value, error) {
	return Int32Value(args[0].Int32() + args[1].Int32()), nil
}

func newCalcClass(t *testing.T) (*Class, MemberID) {
	t.Helper()
	c := NewClass("Calc")
	id, err := c.AddMethod(MethodSpec{
		Name:        "add",
		Params:      []Param{{Name: "a", Type: Int32T}, {Name: "b", Type: Int32T}},
		Result:      Int32T,
		Distributed: true,
		Body:        addBody,
	})
	if err != nil {
		t.Fatalf("AddMethod: %v", err)
	}
	return c, id
}

func TestAddAndInvoke(t *testing.T) {
	c, _ := newCalcClass(t)
	in := c.NewInstance()
	got, err := in.Invoke("add", Int32Value(2), Int32Value(3))
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if got.Int32() != 5 {
		t.Errorf("add(2,3) = %v", got)
	}
}

func TestInvokeErrors(t *testing.T) {
	c, id := newCalcClass(t)
	in := c.NewInstance()

	if _, err := in.Invoke("missing"); !errors.Is(err, ErrNoSuchMethod) {
		t.Errorf("missing method: got %v", err)
	}
	if _, err := in.Invoke("add", Int32Value(1)); !errors.Is(err, ErrSignatureMismatch) {
		t.Errorf("wrong arity: got %v", err)
	}
	if _, err := in.Invoke("add", Int32Value(1), StringValue("x")); !errors.Is(err, ErrSignatureMismatch) {
		t.Errorf("wrong type: got %v", err)
	}
	if err := c.SetBody(id, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Invoke("add", Int32Value(1), Int32Value(2)); !errors.Is(err, ErrNoBody) {
		t.Errorf("nil body: got %v", err)
	}
	// Body returning wrong type is an error.
	if err := c.SetBody(id, func(_ *Instance, _ []Value) (Value, error) {
		return StringValue("oops"), nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Invoke("add", Int32Value(1), Int32Value(2)); err == nil {
		t.Error("wrong result type should error")
	}
}

func TestInvokeDistributedOnly(t *testing.T) {
	c, id := newCalcClass(t)
	in := c.NewInstance()
	if _, err := in.InvokeDistributed("add", Int32Value(1), Int32Value(2)); err != nil {
		t.Fatalf("distributed invoke: %v", err)
	}
	if err := c.SetDistributed(id, false); err != nil {
		t.Fatal(err)
	}
	if _, err := in.InvokeDistributed("add", Int32Value(1), Int32Value(2)); !errors.Is(err, ErrNoSuchMethod) {
		t.Errorf("non-distributed method should be invisible remotely: %v", err)
	}
	// Local invocation still works.
	if _, err := in.Invoke("add", Int32Value(1), Int32Value(2)); err != nil {
		t.Errorf("local invoke should still work: %v", err)
	}
}

func TestLiveSignatureChangeAffectsExistingInstance(t *testing.T) {
	c, id := newCalcClass(t)
	in := c.NewInstance() // created BEFORE the edits below

	// Change add(a,b int32) -> add(a,b,c int32) live.
	if err := c.SetParams(id, []Param{
		{Name: "a", Type: Int32T}, {Name: "b", Type: Int32T}, {Name: "c", Type: Int32T},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetBody(id, func(_ *Instance, args []Value) (Value, error) {
		return Int32Value(args[0].Int32() + args[1].Int32() + args[2].Int32()), nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Invoke("add", Int32Value(1), Int32Value(2)); !errors.Is(err, ErrSignatureMismatch) {
		t.Errorf("old arity should now mismatch: %v", err)
	}
	got, err := in.Invoke("add", Int32Value(1), Int32Value(2), Int32Value(3))
	if err != nil {
		t.Fatalf("new arity: %v", err)
	}
	if got.Int32() != 6 {
		t.Errorf("add(1,2,3) = %v", got)
	}
}

func TestRenamePreservesIdentity(t *testing.T) {
	c, id := newCalcClass(t)
	in := c.NewInstance()
	if err := c.RenameMethod(id, "sum"); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Invoke("add", Int32Value(1), Int32Value(2)); !errors.Is(err, ErrNoSuchMethod) {
		t.Error("old name should be gone")
	}
	if v, err := in.Invoke("sum", Int32Value(1), Int32Value(2)); err != nil || v.Int32() != 3 {
		t.Errorf("sum(1,2) = %v, %v", v, err)
	}
	if got, ok := c.MethodIDByName("sum"); !ok || got != id {
		t.Error("member ID should be stable across rename")
	}
}

func TestDuplicateNamesRejected(t *testing.T) {
	c, id := newCalcClass(t)
	if _, err := c.AddMethod(MethodSpec{Name: "add"}); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("duplicate method: %v", err)
	}
	id2, err := c.AddMethod(MethodSpec{Name: "other"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RenameMethod(id2, "add"); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("rename onto existing: %v", err)
	}
	// Renaming to own name is fine.
	if err := c.RenameMethod(id, "add"); err != nil {
		t.Errorf("self-rename: %v", err)
	}
}

func TestEditValidation(t *testing.T) {
	c := NewClass("C")
	if _, err := c.AddMethod(MethodSpec{Name: ""}); err == nil {
		t.Error("empty method name should fail")
	}
	if _, err := c.AddMethod(MethodSpec{Name: "m", Params: []Param{{Name: "p"}}}); err == nil {
		t.Error("nil param type should fail")
	}
	bogus := MemberID(999)
	if err := c.RemoveMethod(bogus); !errors.Is(err, ErrNoSuchMember) {
		t.Error("remove bogus method")
	}
	if err := c.RenameMethod(bogus, "x"); !errors.Is(err, ErrNoSuchMember) {
		t.Error("rename bogus method")
	}
	if err := c.SetParams(bogus, nil); !errors.Is(err, ErrNoSuchMember) {
		t.Error("setparams bogus method")
	}
	if err := c.SetResult(bogus, Int32T); !errors.Is(err, ErrNoSuchMember) {
		t.Error("setresult bogus method")
	}
	if err := c.SetDistributed(bogus, true); !errors.Is(err, ErrNoSuchMember) {
		t.Error("setdistributed bogus method")
	}
	if err := c.SetBody(bogus, nil); !errors.Is(err, ErrNoSuchMember) {
		t.Error("setbody bogus method")
	}
	if err := c.SetParams(MemberID(1), []Param{{Name: "p", Type: nil}}); err == nil {
		t.Error("setparams with nil type should fail")
	}
	if err := c.RenameMethod(MemberID(1), ""); err == nil {
		t.Error("rename to empty should fail")
	}
}

func TestInterfaceVersionTracksOnlyInterfaceChanges(t *testing.T) {
	c, id := newCalcClass(t)
	v0 := c.InterfaceVersion()

	// Body edits do not change the published interface.
	if err := c.SetBody(id, addBody); err != nil {
		t.Fatal(err)
	}
	if c.InterfaceVersion() != v0 {
		t.Error("body edit must not bump interface version")
	}
	// Non-distributed method additions do not change it either.
	hid, err := c.AddMethod(MethodSpec{Name: "helper", Result: Int32T})
	if err != nil {
		t.Fatal(err)
	}
	if c.InterfaceVersion() != v0 {
		t.Error("non-distributed method must not bump interface version")
	}
	// Making it distributed does.
	if err := c.SetDistributed(hid, true); err != nil {
		t.Fatal(err)
	}
	if c.InterfaceVersion() != v0+1 {
		t.Errorf("distributed toggle should bump version: %d -> %d", v0, c.InterfaceVersion())
	}
	// Renaming a distributed method does.
	if err := c.RenameMethod(id, "plus"); err != nil {
		t.Fatal(err)
	}
	if c.InterfaceVersion() != v0+2 {
		t.Error("rename of distributed method should bump version")
	}
	// Parameter name changes are interface-affecting (they appear in
	// WSDL/IDL documents).
	if err := c.SetParams(id, []Param{{Name: "x", Type: Int32T}, {Name: "y", Type: Int32T}}); err != nil {
		t.Fatal(err)
	}
	if c.InterfaceVersion() != v0+3 {
		t.Error("param rename of distributed method should bump version")
	}
}

func TestChangeEvents(t *testing.T) {
	c, _ := newCalcClass(t)
	var mu sync.Mutex
	var events []ChangeEvent
	cancel := c.Subscribe(func(ev ChangeEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})

	id, err := c.AddMethod(MethodSpec{Name: "ping", Result: StringT, Distributed: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetBody(id, func(*Instance, []Value) (Value, error) { return StringValue("pong"), nil }); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	n := len(events)
	mu.Unlock()
	if n != 2 {
		t.Fatalf("want 2 events, got %d", n)
	}
	if !events[0].InterfaceAffecting {
		t.Error("adding a distributed method should be interface-affecting")
	}
	if events[1].InterfaceAffecting {
		t.Error("body edit should not be interface-affecting")
	}
	if events[0].Seq >= events[1].Seq {
		t.Error("event sequence numbers should increase")
	}

	cancel()
	if _, err := c.AddMethod(MethodSpec{Name: "quiet"}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2 {
		t.Error("cancelled listener should not receive events")
	}
}

// TestListenersInRegistrationOrder: listeners hear each edit in the order
// they subscribed, and cancelling one leaves the others in that order.
func TestListenersInRegistrationOrder(t *testing.T) {
	c, id := newCalcClass(t)
	var heard []int
	cancels := make([]func(), 3)
	for i := range cancels {
		cancels[i] = c.Subscribe(func(ChangeEvent) { heard = append(heard, i) })
	}
	if err := c.RenameMethod(id, "sum"); err != nil {
		t.Fatal(err)
	}
	cancels[1]()
	if err := c.RenameMethod(id, "plus"); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 0, 2}; !slices.Equal(heard, want) {
		t.Errorf("listeners heard %v, want %v", heard, want)
	}
}

func TestInterfaceDescriptor(t *testing.T) {
	c, _ := newCalcClass(t)
	msg := MustStructOf("Message", StructField{Name: "body", Type: StringT})
	_, err := c.AddMethod(MethodSpec{
		Name:        "send",
		Params:      []Param{{Name: "m", Type: msg}},
		Result:      SequenceOf(msg),
		Distributed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.AddMethod(MethodSpec{Name: "internal", Result: Int32T}) // not distributed
	if err != nil {
		t.Fatal(err)
	}

	d := c.Interface()
	if d.ClassName != "Calc" {
		t.Errorf("ClassName = %q", d.ClassName)
	}
	if len(d.Methods) != 2 {
		t.Fatalf("want 2 distributed methods, got %d", len(d.Methods))
	}
	if d.Methods[0].Name != "add" || d.Methods[1].Name != "send" {
		t.Errorf("methods should be name-sorted: %v, %v", d.Methods[0].Name, d.Methods[1].Name)
	}
	if len(d.Structs) != 1 || d.Structs[0].Name() != "Message" {
		t.Errorf("want Message struct collected, got %v", d.Structs)
	}
	if _, ok := d.Lookup("send"); !ok {
		t.Error("Lookup(send) failed")
	}
	if _, ok := d.Lookup("internal"); ok {
		t.Error("internal must not be in the descriptor")
	}
	if s, ok := d.StructByName("Message"); !ok || !s.Equal(msg) {
		t.Error("StructByName(Message) failed")
	}
	if _, ok := d.StructByName("Nope"); ok {
		t.Error("StructByName(Nope) should fail")
	}
}

func TestDescriptorHashStability(t *testing.T) {
	build := func() InterfaceDescriptor {
		c := NewClass("Svc")
		_, _ = c.AddMethod(MethodSpec{Name: "b", Result: Int32T, Distributed: true})
		_, _ = c.AddMethod(MethodSpec{Name: "a", Params: []Param{{Name: "s", Type: StringT}}, Distributed: true})
		return c.Interface()
	}
	d1, d2 := build(), build()
	if d1.Hash() != d2.Hash() {
		t.Error("identical interfaces must hash identically")
	}
	if !d1.Equal(d2) {
		t.Error("identical interfaces must be Equal")
	}

	// Insertion order must not matter.
	c := NewClass("Svc")
	_, _ = c.AddMethod(MethodSpec{Name: "a", Params: []Param{{Name: "s", Type: StringT}}, Distributed: true})
	_, _ = c.AddMethod(MethodSpec{Name: "b", Result: Int32T, Distributed: true})
	if c.Interface().Hash() != d1.Hash() {
		t.Error("method insertion order must not affect the hash")
	}

	// A signature tweak must change the hash.
	c2 := NewClass("Svc")
	_, _ = c2.AddMethod(MethodSpec{Name: "b", Result: Int64T, Distributed: true})
	_, _ = c2.AddMethod(MethodSpec{Name: "a", Params: []Param{{Name: "s", Type: StringT}}, Distributed: true})
	if c2.Interface().Hash() == d1.Hash() {
		t.Error("result type change must change the hash")
	}
}

func TestMethodSigEqualAndString(t *testing.T) {
	s1 := MethodSig{Name: "f", Params: []Param{{Name: "a", Type: Int32T}}, Result: StringT}
	s2 := MethodSig{Name: "f", Params: []Param{{Name: "a", Type: Int32T}}, Result: StringT}
	if !s1.Equal(s2) {
		t.Error("identical sigs should be equal")
	}
	if s1.Equal(MethodSig{Name: "g", Params: s1.Params, Result: StringT}) {
		t.Error("name difference")
	}
	if s1.Equal(MethodSig{Name: "f", Params: []Param{{Name: "b", Type: Int32T}}, Result: StringT}) {
		t.Error("param name difference")
	}
	if s1.Equal(MethodSig{Name: "f", Params: []Param{{Name: "a", Type: Int64T}}, Result: StringT}) {
		t.Error("param type difference")
	}
	if s1.Equal(MethodSig{Name: "f", Params: s1.Params, Result: Int32T}) {
		t.Error("result difference")
	}
	if got, want := s1.String(), "f(a:int32):string"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestConcurrentInvokeAndEdit(t *testing.T) {
	c, id := newCalcClass(t)
	in := c.NewInstance()
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Callers hammer the method while an editor mutates the body.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, err := in.Invoke("add", Int32Value(20), Int32Value(22))
				if err != nil {
					continue // transient signature mismatch is fine
				}
				if got := v.Int32(); got != 42 && got != 84 {
					t.Errorf("unexpected result %d", got)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		double := func(_ *Instance, args []Value) (Value, error) {
			return Int32Value(2 * (args[0].Int32() + args[1].Int32())), nil
		}
		if err := c.SetBody(id, double); err != nil {
			t.Fatal(err)
		}
		if err := c.SetBody(id, addBody); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
