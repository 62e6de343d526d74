// Package dyn implements a dynamic-class runtime modeled on JPie's dynamic
// classes (Goldman 2004), the substrate the paper's Server Development
// Environment is built on. A Class owns a mutable set of methods whose
// signatures and implementations can change at run time; changes take
// effect immediately on existing instances, are recorded on an undo/redo
// history stack, and are announced to registered listeners. The type system
// mirrors the subset the paper's CORBA-IDL/WSDL mappings support: Java
// String, int, double, float, char, boolean, plus user-defined structured
// types and sequences.
package dyn

import (
	"fmt"
	"sort"
	"strings"
)

// Kind identifies the category of a Type.
type Kind int

// The supported type kinds. The paper's IDL-to-Java mapping permits String,
// int, double, float, char and boolean, plus interface-declared composite
// types; we model composites as named structs and homogeneous sequences.
const (
	KindInvalid Kind = iota
	KindVoid
	KindBoolean
	KindChar
	KindInt32
	KindInt64
	KindFloat32
	KindFloat64
	KindString
	KindStruct
	KindSequence
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindVoid:
		return "void"
	case KindBoolean:
		return "boolean"
	case KindChar:
		return "char"
	case KindInt32:
		return "int32"
	case KindInt64:
		return "int64"
	case KindFloat32:
		return "float32"
	case KindFloat64:
		return "float64"
	case KindString:
		return "string"
	case KindStruct:
		return "struct"
	case KindSequence:
		return "sequence"
	default:
		return "invalid"
	}
}

// Type describes a value type. Types are immutable once constructed; struct
// types are identified by name and carry their field layout.
type Type struct {
	kind   Kind
	name   string // struct name; empty otherwise
	elem   *Type  // sequence element type
	fields []StructField
}

// StructField is a single named field of a struct type.
type StructField struct {
	Name string
	Type *Type
}

// Predeclared primitive types. They are singletons: the package always hands
// out these pointers for primitive kinds, so pointer comparison works for
// primitives (structural equality is still available via Equal).
var (
	Void     = &Type{kind: KindVoid}
	Boolean  = &Type{kind: KindBoolean}
	Char     = &Type{kind: KindChar}
	Int32T   = &Type{kind: KindInt32}
	Int64T   = &Type{kind: KindInt64}
	Float32T = &Type{kind: KindFloat32}
	Float64T = &Type{kind: KindFloat64}
	StringT  = &Type{kind: KindString}
)

// Primitive returns the singleton type for a primitive kind, or nil if the
// kind is not primitive.
func Primitive(k Kind) *Type {
	switch k {
	case KindVoid:
		return Void
	case KindBoolean:
		return Boolean
	case KindChar:
		return Char
	case KindInt32:
		return Int32T
	case KindInt64:
		return Int64T
	case KindFloat32:
		return Float32T
	case KindFloat64:
		return Float64T
	case KindString:
		return StringT
	default:
		return nil
	}
}

// SequenceOf returns the sequence type with the given element type.
func SequenceOf(elem *Type) *Type {
	if elem == nil {
		panic("dyn: SequenceOf(nil)")
	}
	return &Type{kind: KindSequence, elem: elem}
}

// StructOf returns a named struct type with the given fields. Field names
// must be unique and non-empty.
func StructOf(name string, fields ...StructField) (*Type, error) {
	if name == "" {
		return nil, fmt.Errorf("dyn: struct type needs a name")
	}
	seen := make(map[string]bool, len(fields))
	for _, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("dyn: struct %s has an unnamed field", name)
		}
		if f.Type == nil {
			return nil, fmt.Errorf("dyn: struct %s field %s has no type", name, f.Name)
		}
		if seen[f.Name] {
			return nil, fmt.Errorf("dyn: struct %s has duplicate field %s", name, f.Name)
		}
		seen[f.Name] = true
	}
	fs := make([]StructField, len(fields))
	copy(fs, fields)
	return &Type{kind: KindStruct, name: name, fields: fs}, nil
}

// MustStructOf is StructOf but panics on error; intended for tests and
// static type tables.
func MustStructOf(name string, fields ...StructField) *Type {
	t, err := StructOf(name, fields...)
	if err != nil {
		panic(err)
	}
	return t
}

// Kind reports the type's kind.
func (t *Type) Kind() Kind { return t.kind }

// Name returns the struct name, or "" for non-struct types.
func (t *Type) Name() string { return t.name }

// Elem returns a sequence's element type, or nil.
func (t *Type) Elem() *Type { return t.elem }

// Fields returns a copy of a struct's field list (nil for non-structs).
func (t *Type) Fields() []StructField {
	if t.kind != KindStruct {
		return nil
	}
	fs := make([]StructField, len(t.fields))
	copy(fs, t.fields)
	return fs
}

// NumFields returns the number of struct fields (0 for non-structs).
func (t *Type) NumFields() int { return len(t.fields) }

// Field returns the i'th struct field.
func (t *Type) Field(i int) StructField { return t.fields[i] }

// FieldByName returns the field with the given name.
func (t *Type) FieldByName(name string) (StructField, bool) {
	for _, f := range t.fields {
		if f.Name == name {
			return f, true
		}
	}
	return StructField{}, false
}

// IsPrimitive reports whether the type is one of the primitive singletons.
func (t *Type) IsPrimitive() bool {
	switch t.kind {
	case KindStruct, KindSequence, KindInvalid:
		return false
	default:
		return true
	}
}

// Equal reports structural equality. Struct types compare by name and field
// layout; sequences by element type.
func (t *Type) Equal(o *Type) bool {
	if t == o {
		return true
	}
	if t == nil || o == nil || t.kind != o.kind {
		return false
	}
	switch t.kind {
	case KindSequence:
		return t.elem.Equal(o.elem)
	case KindStruct:
		if t.name != o.name || len(t.fields) != len(o.fields) {
			return false
		}
		for i := range t.fields {
			if t.fields[i].Name != o.fields[i].Name || !t.fields[i].Type.Equal(o.fields[i].Type) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// String renders the type in an IDL-flavoured notation, e.g.
// "sequence<Message>" or "struct Message{from:string,body:string}".
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.kind {
	case KindSequence:
		return "sequence<" + t.elem.String() + ">"
	case KindStruct:
		var b strings.Builder
		b.WriteString("struct ")
		b.WriteString(t.name)
		b.WriteByte('{')
		for i, f := range t.fields {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(f.Name)
			b.WriteByte(':')
			b.WriteString(f.Type.String())
		}
		b.WriteByte('}')
		return b.String()
	default:
		return t.kind.String()
	}
}

// CollectStructs appends, to dst, every struct type reachable from t
// (including t itself), keyed by name, depth-first. It is used by the WSDL
// and IDL generators to emit complex-type definitions exactly once.
func CollectStructs(t *Type, dst map[string]*Type) {
	if t == nil {
		return
	}
	switch t.kind {
	case KindSequence:
		CollectStructs(t.elem, dst)
	case KindStruct:
		if _, ok := dst[t.name]; ok {
			return
		}
		dst[t.name] = t
		for _, f := range t.fields {
			CollectStructs(f.Type, dst)
		}
	}
}

// SortedStructNames returns the keys of a struct map in lexical order, for
// deterministic document generation.
func SortedStructNames(m map[string]*Type) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
