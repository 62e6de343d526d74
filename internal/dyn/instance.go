package dyn

import "fmt"

// Instance is a live object of a dynamic class. Method dispatch resolves
// against the class's *current* method table on every call, so signature and
// implementation edits take effect immediately on existing instances — the
// JPie property the paper's live-development model depends on.
type Instance struct {
	class *Class
}

// Class returns the instance's dynamic class.
func (in *Instance) Class() *Class { return in.class }

// Invoke calls the named method with the given arguments. Argument types are
// checked against the method's current parameter list; the result is checked
// against the current result type. The body runs outside any class lock, so
// long-running methods do not block concurrent edits or other calls.
//
// Dispatch is lock-free: the method is resolved against the class's current
// copy-on-write dispatch table (one atomic load, one map lookup — no mutex,
// no linear scan). An edit committed before Invoke starts is always
// observed; a call in flight finishes with the snapshot it started with.
func (in *Instance) Invoke(name string, args ...Value) (Value, error) {
	return in.invoke(name, args, false)
}

// InvokeDistributed behaves like Invoke but only resolves methods carrying
// the 'distributed' modifier — the dispatch rule the SDE call handlers use,
// so that a method removed from the published interface is indistinguishable
// from a deleted method to remote clients.
func (in *Instance) InvokeDistributed(name string, args ...Value) (Value, error) {
	return in.invoke(name, args, true)
}

func (in *Instance) invoke(name string, args []Value, distributedOnly bool) (Value, error) {
	m, ok := in.class.dispatch.Load().byName[name]
	if !ok || (distributedOnly && !m.distributed) {
		return Value{}, fmt.Errorf("%w: %s.%s", ErrNoSuchMethod, in.class.Name(), name)
	}
	if len(args) != len(m.params) {
		return Value{}, fmt.Errorf("%w: %s.%s takes %d arguments, got %d",
			ErrSignatureMismatch, in.class.Name(), name, len(m.params), len(args))
	}
	for i, p := range m.params {
		if !args[i].Type().Equal(p.Type) {
			return Value{}, fmt.Errorf("%w: %s.%s parameter %s wants %s, got %s",
				ErrSignatureMismatch, in.class.Name(), name, p.Name, p.Type, args[i].Type())
		}
	}
	if m.body == nil {
		return Value{}, fmt.Errorf("%w: %s.%s", ErrNoBody, in.class.Name(), name)
	}
	out, err := m.body(in, args)
	if err != nil {
		return Value{}, err
	}
	if !out.Type().Equal(m.result) {
		return Value{}, fmt.Errorf("dyn: %s.%s returned %s, declared result is %s",
			in.class.Name(), name, out.Type(), m.result)
	}
	return out, nil
}
