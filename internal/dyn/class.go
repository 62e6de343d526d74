package dyn

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// MemberID identifies a method across renames and signature edits,
// the way JPie keeps declaration and use consistent when a member is
// renamed: callers hold the ID, not the name.
type MemberID uint64

// Param is a formal method parameter.
type Param struct {
	Name string
	Type *Type
}

// Body is a method implementation. It receives the instance the method was
// invoked on and the argument values (already checked against the current
// parameter types) and returns the result value, which must match the
// method's current result type.
type Body func(self *Instance, args []Value) (Value, error)

// MethodSpec describes a method to add to a class.
type MethodSpec struct {
	Name        string
	Params      []Param
	Result      *Type // nil means void
	Distributed bool  // include in the published server interface
	Body        Body  // may be nil until the developer writes it
}

// method is one method record. A record is immutable once it is put: an
// edit copies the current record, changes the copy and puts the copy in
// its place, so the dispatch table and the history hold records as they
// are, and a call in flight keeps the record it started with.
type method struct {
	id          MemberID
	name        string
	params      []Param
	result      *Type
	distributed bool
	body        Body
}

// ChangeEvent is delivered to listeners after every committed edit (and
// after every undo/redo step). InterfaceAffecting is true when the edit
// changed the class's distributed interface descriptor — the signal the
// SDE's DL Publishers key their stable-timeout algorithm on.
type ChangeEvent struct {
	Class *Class
	// Seq is the class edit sequence number after the change.
	Seq uint64
	// InterfaceVersion is the distributed-interface version after the
	// change; it increments only when the interface descriptor changed.
	InterfaceVersion uint64
	// InterfaceAffecting reports whether this edit changed the
	// distributed interface descriptor.
	InterfaceAffecting bool
	// Op is a human-readable description of the edit ("add method foo");
	// undo and redo steps read "undo <op>" and "redo <op>".
	Op string
}

// Listener observes class changes. Listeners are invoked synchronously,
// outside the class lock, in registration order.
type Listener func(ChangeEvent)

// Class is a dynamic class: a named, mutable collection of methods. All
// operations are safe for concurrent use. The zero value is not usable;
// construct with NewClass.
//
// Dispatch concurrency model: edits serialize on c.mu, but the call path is
// lock-free. Every committed edit rebuilds an immutable dispatch table
// (name → method record) and swaps it in atomically before the editing
// call returns, so a call that starts after an edit returns is guaranteed
// to see the edit — the paper's "edits take effect immediately" semantics —
// while calls themselves take no mutex and do no linear scan.
type Class struct {
	name string

	// dispatch is the copy-on-write method table read by Instance.Invoke.
	dispatch atomic.Pointer[dispatchTable]
	// ifaceCache is the current distributed-interface descriptor, rebuilt
	// on every committed edit so per-call interface lookups are free.
	ifaceCache atomic.Pointer[InterfaceDescriptor]

	mu        sync.RWMutex
	methods   map[MemberID]*method
	nextID    MemberID
	seq       uint64 // total committed edits (incl. undo/redo)
	ifaceVer  uint64 // distributed interface version
	ifaceHash string // hash of the current interface descriptor
	history   History

	// listeners is in registration order. Subscribe only appends and
	// cancel deletes from a copy, so a slice notify has read never changes
	// under it and notify ranges over it without holding lmu.
	lmu       sync.Mutex
	listeners []*Listener
}

// dispatchTable is the immutable name → method index swapped in whole on
// every committed edit.
type dispatchTable struct {
	byName map[string]*method
}

// NewClass creates an empty dynamic class with the given name.
func NewClass(name string) *Class {
	c := &Class{name: name, nextID: 1, methods: make(map[MemberID]*method)}
	c.history.class = c
	c.dispatch.Store(&dispatchTable{})
	desc := c.interfaceLocked()
	c.ifaceHash = desc.hash
	c.ifaceCache.Store(&desc)
	return c
}

// Name returns the class name.
func (c *Class) Name() string { return c.name }

// History returns the class's undo/redo history stack.
func (c *Class) History() *History { return &c.history }

// Seq returns the total number of committed edits.
func (c *Class) Seq() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.seq
}

// InterfaceVersion returns the current distributed-interface version. It
// starts at 0 for an empty interface and increments each time an edit
// changes the interface descriptor.
func (c *Class) InterfaceVersion() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ifaceVer
}

// Subscribe registers a change listener and returns a function that removes
// it. The listener is called synchronously after each committed edit.
func (c *Class) Subscribe(l Listener) (cancel func()) {
	p := &l
	c.lmu.Lock()
	c.listeners = append(c.listeners, p)
	c.lmu.Unlock()
	return func() {
		c.lmu.Lock()
		c.listeners = slices.DeleteFunc(slices.Clone(c.listeners), func(q *Listener) bool { return q == p })
		c.lmu.Unlock()
	}
}

// notify delivers a change event to all listeners. Must be called without
// c.mu held.
func (c *Class) notify(ev ChangeEvent) {
	c.lmu.Lock()
	ls := c.listeners
	c.lmu.Unlock()
	for _, l := range ls {
		(*l)(ev)
	}
}

// put is the class's one write path: edits, undo and redo all end here.
// It makes next the record of method id (nil removes the method), pushes
// the step {op, id, before, after} onto the history when record is set,
// bumps the counters, publishes the new descriptor and dispatch table,
// releases c.mu and notifies listeners.
//
// The mutex must be held on entry. Only the notification runs after it is
// released: the edit is visible to the lock-free call path before the
// editing call returns, and the history lists edits in commit order.
func (c *Class) put(id MemberID, next *method, op string, record bool) {
	if record {
		c.history.push(step{op: op, id: id, before: c.methods[id], after: next})
	}
	if next == nil {
		delete(c.methods, id)
	} else {
		c.methods[id] = next
	}
	c.seq++
	desc := c.interfaceLocked()
	affecting := desc.hash != c.ifaceHash
	if affecting {
		c.ifaceHash = desc.hash
		c.ifaceVer++
	}
	desc.Version = c.ifaceVer
	c.ifaceCache.Store(&desc)
	t := &dispatchTable{byName: make(map[string]*method, len(c.methods))}
	for _, m := range c.methods {
		t.byName[m.name] = m
	}
	c.dispatch.Store(t)
	ev := ChangeEvent{
		Class:              c,
		Seq:                c.seq,
		InterfaceVersion:   c.ifaceVer,
		InterfaceAffecting: affecting,
		Op:                 op,
	}
	c.mu.Unlock()
	c.notify(ev)
}

// edit puts a changed copy of method id's record. change runs under c.mu:
// it alters the copy and describes the edit, or returns an error to leave
// the class as it is.
func (c *Class) edit(id MemberID, change func(m *method) (op string, err error)) error {
	c.mu.Lock()
	cur := c.methods[id]
	if cur == nil {
		c.mu.Unlock()
		return fmt.Errorf("%w: method %d", ErrNoSuchMember, id)
	}
	next := *cur
	op, err := change(&next)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	c.put(id, &next, op, true)
	return nil
}

// nameTakenLocked reports whether a method is named name. Caller holds
// c.mu, under which the dispatch table is the current one.
func (c *Class) nameTakenLocked(name string) bool {
	_, ok := c.dispatch.Load().byName[name]
	return ok
}

// AddMethod adds a method and returns its stable member ID.
func (c *Class) AddMethod(spec MethodSpec) (MemberID, error) {
	if spec.Name == "" {
		return 0, fmt.Errorf("dyn: method needs a name")
	}
	if spec.Result == nil {
		spec.Result = Void
	}
	for _, p := range spec.Params {
		if p.Type == nil {
			return 0, fmt.Errorf("dyn: method %s parameter %q has no type", spec.Name, p.Name)
		}
	}
	c.mu.Lock()
	if c.nameTakenLocked(spec.Name) {
		c.mu.Unlock()
		return 0, fmt.Errorf("%w: %s", ErrDuplicateName, spec.Name)
	}
	id := c.nextID
	c.nextID++
	c.put(id, &method{
		id:          id,
		name:        spec.Name,
		params:      append([]Param(nil), spec.Params...),
		result:      spec.Result,
		distributed: spec.Distributed,
		body:        spec.Body,
	}, "add method "+spec.Name, true)
	return id, nil
}

// RemoveMethod deletes a method from the class.
func (c *Class) RemoveMethod(id MemberID) error {
	c.mu.Lock()
	m := c.methods[id]
	if m == nil {
		c.mu.Unlock()
		return fmt.Errorf("%w: method %d", ErrNoSuchMember, id)
	}
	c.put(id, nil, "remove method "+m.name, true)
	return nil
}

// RenameMethod changes a method's name. Calls made through the member ID
// keep working, mirroring JPie's consistency of declaration and use.
func (c *Class) RenameMethod(id MemberID, newName string) error {
	if newName == "" {
		return fmt.Errorf("dyn: method needs a name")
	}
	return c.edit(id, func(m *method) (string, error) {
		if m.name != newName && c.nameTakenLocked(newName) {
			return "", fmt.Errorf("%w: %s", ErrDuplicateName, newName)
		}
		op := fmt.Sprintf("rename method %s to %s", m.name, newName)
		m.name = newName
		return op, nil
	})
}

// SetParams replaces a method's formal parameter list.
func (c *Class) SetParams(id MemberID, params []Param) error {
	for _, p := range params {
		if p.Type == nil {
			return fmt.Errorf("dyn: parameter %q has no type", p.Name)
		}
	}
	return c.edit(id, func(m *method) (string, error) {
		m.params = append([]Param(nil), params...)
		return "set parameters of " + m.name, nil
	})
}

// SetResult replaces a method's result type (nil means void).
func (c *Class) SetResult(id MemberID, result *Type) error {
	if result == nil {
		result = Void
	}
	return c.edit(id, func(m *method) (string, error) {
		m.result = result
		return "set result of " + m.name, nil
	})
}

// SetDistributed toggles the 'distributed' modifier: whether the method is
// part of the published server interface (Figure 3 of the paper).
func (c *Class) SetDistributed(id MemberID, distributed bool) error {
	return c.edit(id, func(m *method) (string, error) {
		m.distributed = distributed
		if distributed {
			return "set distributed on " + m.name, nil
		}
		return "clear distributed on " + m.name, nil
	})
}

// SetBody replaces a method's implementation. The change takes effect
// immediately for all existing instances (calls in flight finish with the
// body they started with).
func (c *Class) SetBody(id MemberID, body Body) error {
	return c.edit(id, func(m *method) (string, error) {
		m.body = body
		return "set body of " + m.name, nil
	})
}

// MethodIDByName returns the member ID of the named method. It reads the
// lock-free dispatch table, so it is safe on the call path.
func (c *Class) MethodIDByName(name string) (MemberID, bool) {
	m, ok := c.dispatch.Load().byName[name]
	if !ok {
		return 0, false
	}
	return m.id, true
}

// NewInstance creates a live instance of the class. Per the paper
// (Section 5.4) the SDE keeps a single instance per server class; the
// runtime itself does not enforce that, the SDE manager does.
func (c *Class) NewInstance() *Instance {
	return &Instance{class: c}
}
