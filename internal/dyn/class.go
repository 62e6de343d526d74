package dyn

import (
	"fmt"
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

// method is the internal mutable method record.
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
	// Op is a human-readable description of the edit ("add method foo").
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
// (name → method snapshot) and swaps it in atomically before the editing
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
	methods   []*method
	nextID    MemberID
	seq       uint64 // total committed edits (incl. undo/redo)
	ifaceVer  uint64 // distributed interface version
	ifaceHash string // hash of the current interface descriptor
	history   *History

	lmu       sync.Mutex
	listeners map[int]Listener
	nextLis   int
}

// methodView is an immutable snapshot of one method, published in the
// dispatch table. The params slice is never mutated after publication
// (edits replace the whole record), so readers may alias it freely.
type methodView struct {
	id          MemberID
	name        string
	params      []Param
	result      *Type
	body        Body
	distributed bool
}

// dispatchTable is the immutable name → method index swapped in whole on
// every committed edit.
type dispatchTable struct {
	byName map[string]*methodView
}

var emptyDispatch = &dispatchTable{byName: map[string]*methodView{}}

// rebuildDispatchLocked publishes a fresh dispatch table reflecting the
// current method set. Caller holds c.mu.
func (c *Class) rebuildDispatchLocked() {
	if len(c.methods) == 0 {
		c.dispatch.Store(emptyDispatch)
		return
	}
	t := &dispatchTable{byName: make(map[string]*methodView, len(c.methods))}
	for _, m := range c.methods {
		// m.params is replaced wholesale by edits, never mutated in
		// place, so the view can alias it.
		t.byName[m.name] = &methodView{
			id:          m.id,
			name:        m.name,
			params:      m.params,
			result:      m.result,
			body:        m.body,
			distributed: m.distributed,
		}
	}
	c.dispatch.Store(t)
}

// NewClass creates an empty dynamic class with the given name.
func NewClass(name string) *Class {
	c := &Class{
		name:      name,
		nextID:    1,
		listeners: make(map[int]Listener),
	}
	c.history = newHistory(c)
	c.dispatch.Store(emptyDispatch)
	desc := c.interfaceLocked()
	c.ifaceHash = desc.hash
	c.ifaceCache.Store(&desc)
	return c
}

// Name returns the class name.
func (c *Class) Name() string { return c.name }

// History returns the class's undo/redo history stack.
func (c *Class) History() *History { return c.history }

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
	c.lmu.Lock()
	id := c.nextLis
	c.nextLis++
	c.listeners[id] = l
	c.lmu.Unlock()
	return func() {
		c.lmu.Lock()
		delete(c.listeners, id)
		c.lmu.Unlock()
	}
}

// notify delivers a change event to all listeners. Must be called without
// c.mu held.
func (c *Class) notify(ev ChangeEvent) {
	c.lmu.Lock()
	ls := make([]Listener, 0, len(c.listeners))
	ids := make([]int, 0, len(c.listeners))
	for id := range c.listeners {
		ids = append(ids, id)
	}
	// Deterministic order: ascending registration ID.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	for _, id := range ids {
		ls = append(ls, c.listeners[id])
	}
	c.lmu.Unlock()
	for _, l := range ls {
		l(ev)
	}
}

// commit finalizes an edit made while holding c.mu: bumps counters,
// recomputes the interface descriptor, swaps in the new dispatch table and
// descriptor cache, releases the lock, records the step on the history
// stack (unless replaying), and notifies listeners.
//
// The mutex must be held on entry; commit releases it. The dispatch table
// and descriptor are published before the lock is released, so the edit is
// visible to the lock-free call path before the editing call returns.
func (c *Class) commit(op string, step *step, recording bool) ChangeEvent {
	c.seq++
	desc := c.interfaceLocked()
	affecting := desc.hash != c.ifaceHash
	if affecting {
		c.ifaceHash = desc.hash
		c.ifaceVer++
	}
	desc.Version = c.ifaceVer
	c.ifaceCache.Store(&desc)
	c.rebuildDispatchLocked()
	ev := ChangeEvent{
		Class:              c,
		Seq:                c.seq,
		InterfaceVersion:   c.ifaceVer,
		InterfaceAffecting: affecting,
		Op:                 op,
	}
	c.mu.Unlock()
	if recording && step != nil {
		step.op = op
		c.history.push(step)
	}
	c.notify(ev)
	return ev
}

func (c *Class) findMethodLocked(id MemberID) (int, *method) {
	for i, m := range c.methods {
		if m.id == id {
			return i, m
		}
	}
	return -1, nil
}

func (c *Class) methodByNameLocked(name string) *method {
	for _, m := range c.methods {
		if m.name == name {
			return m
		}
	}
	return nil
}

// AddMethod adds a method and returns its stable member ID.
func (c *Class) AddMethod(spec MethodSpec) (MemberID, error) {
	return c.addMethod(spec, true)
}

func (c *Class) addMethod(spec MethodSpec, recording bool) (MemberID, error) {
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
	if c.methodByNameLocked(spec.Name) != nil {
		c.mu.Unlock()
		return 0, fmt.Errorf("%w: %s", ErrDuplicateName, spec.Name)
	}
	id := c.nextID
	c.nextID++
	m := &method{
		id:          id,
		name:        spec.Name,
		params:      append([]Param(nil), spec.Params...),
		result:      spec.Result,
		distributed: spec.Distributed,
		body:        spec.Body,
	}
	c.methods = append(c.methods, m)
	var st *step
	if recording {
		spec := spec
		st = &step{
			revert: func() { _ = c.removeMethod(id, false) },
			apply: func() {
				_, _ = c.addMethodWithID(spec, id)
			},
		}
	}
	c.commit("add method "+spec.Name, st, recording)
	return id, nil
}

// addMethodWithID re-adds a method under a specific ID (redo path).
func (c *Class) addMethodWithID(spec MethodSpec, id MemberID) (MemberID, error) {
	c.mu.Lock()
	if c.methodByNameLocked(spec.Name) != nil {
		c.mu.Unlock()
		return 0, fmt.Errorf("%w: %s", ErrDuplicateName, spec.Name)
	}
	m := &method{
		id:          id,
		name:        spec.Name,
		params:      append([]Param(nil), spec.Params...),
		result:      spec.Result,
		distributed: spec.Distributed,
		body:        spec.Body,
	}
	if spec.Result == nil {
		m.result = Void
	}
	c.methods = append(c.methods, m)
	if id >= c.nextID {
		c.nextID = id + 1
	}
	c.commit("add method "+spec.Name, nil, false)
	return id, nil
}

// RemoveMethod deletes a method from the class.
func (c *Class) RemoveMethod(id MemberID) error {
	return c.removeMethod(id, true)
}

func (c *Class) removeMethod(id MemberID, recording bool) error {
	c.mu.Lock()
	i, m := c.findMethodLocked(id)
	if m == nil {
		c.mu.Unlock()
		return fmt.Errorf("%w: method %d", ErrNoSuchMember, id)
	}
	c.methods = append(c.methods[:i], c.methods[i+1:]...)
	var st *step
	if recording {
		saved := *m
		savedParams := append([]Param(nil), m.params...)
		st = &step{
			revert: func() {
				sp := MethodSpec{Name: saved.name, Params: savedParams, Result: saved.result, Distributed: saved.distributed, Body: saved.body}
				_, _ = c.addMethodWithID(sp, saved.id)
			},
			apply: func() { _ = c.removeMethod(id, false) },
		}
	}
	c.commit("remove method "+m.name, st, recording)
	return nil
}

// RenameMethod changes a method's name. Calls made through the member ID
// keep working, mirroring JPie's consistency of declaration and use.
func (c *Class) RenameMethod(id MemberID, newName string) error {
	return c.renameMethod(id, newName, true)
}

func (c *Class) renameMethod(id MemberID, newName string, recording bool) error {
	if newName == "" {
		return fmt.Errorf("dyn: method needs a name")
	}
	c.mu.Lock()
	_, m := c.findMethodLocked(id)
	if m == nil {
		c.mu.Unlock()
		return fmt.Errorf("%w: method %d", ErrNoSuchMember, id)
	}
	if m.name != newName && c.methodByNameLocked(newName) != nil {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrDuplicateName, newName)
	}
	old := m.name
	m.name = newName
	var st *step
	if recording {
		st = &step{
			revert: func() { _ = c.renameMethod(id, old, false) },
			apply:  func() { _ = c.renameMethod(id, newName, false) },
		}
	}
	c.commit(fmt.Sprintf("rename method %s to %s", old, newName), st, recording)
	return nil
}

// SetParams replaces a method's formal parameter list.
func (c *Class) SetParams(id MemberID, params []Param) error {
	return c.setParams(id, params, true)
}

func (c *Class) setParams(id MemberID, params []Param, recording bool) error {
	for _, p := range params {
		if p.Type == nil {
			return fmt.Errorf("dyn: parameter %q has no type", p.Name)
		}
	}
	c.mu.Lock()
	_, m := c.findMethodLocked(id)
	if m == nil {
		c.mu.Unlock()
		return fmt.Errorf("%w: method %d", ErrNoSuchMember, id)
	}
	old := m.params
	m.params = append([]Param(nil), params...)
	var st *step
	if recording {
		newCopy := append([]Param(nil), params...)
		st = &step{
			revert: func() { _ = c.setParams(id, old, false) },
			apply:  func() { _ = c.setParams(id, newCopy, false) },
		}
	}
	c.commit("set parameters of "+m.name, st, recording)
	return nil
}

// SetResult replaces a method's result type (nil means void).
func (c *Class) SetResult(id MemberID, result *Type) error {
	return c.setResult(id, result, true)
}

func (c *Class) setResult(id MemberID, result *Type, recording bool) error {
	if result == nil {
		result = Void
	}
	c.mu.Lock()
	_, m := c.findMethodLocked(id)
	if m == nil {
		c.mu.Unlock()
		return fmt.Errorf("%w: method %d", ErrNoSuchMember, id)
	}
	old := m.result
	m.result = result
	var st *step
	if recording {
		st = &step{
			revert: func() { _ = c.setResult(id, old, false) },
			apply:  func() { _ = c.setResult(id, result, false) },
		}
	}
	c.commit("set result of "+m.name, st, recording)
	return nil
}

// SetDistributed toggles the 'distributed' modifier: whether the method is
// part of the published server interface (Figure 3 of the paper).
func (c *Class) SetDistributed(id MemberID, distributed bool) error {
	return c.setDistributed(id, distributed, true)
}

func (c *Class) setDistributed(id MemberID, distributed bool, recording bool) error {
	c.mu.Lock()
	_, m := c.findMethodLocked(id)
	if m == nil {
		c.mu.Unlock()
		return fmt.Errorf("%w: method %d", ErrNoSuchMember, id)
	}
	old := m.distributed
	m.distributed = distributed
	var st *step
	if recording {
		st = &step{
			revert: func() { _ = c.setDistributed(id, old, false) },
			apply:  func() { _ = c.setDistributed(id, distributed, false) },
		}
	}
	op := "clear distributed on "
	if distributed {
		op = "set distributed on "
	}
	c.commit(op+m.name, st, recording)
	return nil
}

// SetBody replaces a method's implementation. The change takes effect
// immediately for all existing instances (calls in flight finish with the
// body they started with).
func (c *Class) SetBody(id MemberID, body Body) error {
	return c.setBody(id, body, true)
}

func (c *Class) setBody(id MemberID, body Body, recording bool) error {
	c.mu.Lock()
	_, m := c.findMethodLocked(id)
	if m == nil {
		c.mu.Unlock()
		return fmt.Errorf("%w: method %d", ErrNoSuchMember, id)
	}
	old := m.body
	m.body = body
	var st *step
	if recording {
		st = &step{
			revert: func() { _ = c.setBody(id, old, false) },
			apply:  func() { _ = c.setBody(id, body, false) },
		}
	}
	c.commit("set body of "+m.name, st, recording)
	return nil
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
