package dyn

import "errors"

// Sentinel errors reported by the dynamic-class runtime. Call handlers in
// the SDE map ErrNoSuchMethod onto the wire-level "Non Existent Method"
// fault/exception the paper's protocol is built around.
var (
	// ErrNoSuchMethod reports an invocation of a method that does not
	// exist (or is not distributed) on the class's current interface.
	ErrNoSuchMethod = errors.New("dyn: no such method")

	// ErrSignatureMismatch reports an invocation whose argument list does
	// not match the method's current parameter types.
	ErrSignatureMismatch = errors.New("dyn: argument list does not match method signature")

	// ErrDuplicateName reports an attempt to create a method with a name
	// already in use on the class.
	ErrDuplicateName = errors.New("dyn: duplicate member name")

	// ErrNoSuchMember reports an edit addressed to a method ID that is not
	// (any longer) part of the class.
	ErrNoSuchMember = errors.New("dyn: no such member")

	// ErrNoBody reports an invocation of a method whose implementation has
	// not been supplied yet (the developer created the signature but has
	// not written the body).
	ErrNoBody = errors.New("dyn: method has no implementation")

	// ErrNothingToUndo and ErrNothingToRedo report empty history traversal.
	ErrNothingToUndo = errors.New("dyn: nothing to undo")
	ErrNothingToRedo = errors.New("dyn: nothing to redo")
)
