// Package ctype models the C type system used throughout the tracer, the
// rule language and the transformation engine: primitive types, arrays,
// structs and pointers, together with the LP64 layout rules (sizes,
// alignments, field offsets, padding) that Gleipnir observes through the
// compiler's debug information.
//
// Every type is immutable after construction. Struct field offsets are
// computed eagerly by NewStruct following the System V AMD64 ABI rules the
// paper's examples rely on (e.g. struct{int;double} has size 16, the double
// at offset 8).
package ctype

import (
	"fmt"
	"strings"
)

// Type is the interface implemented by all C types.
type Type interface {
	// Size returns sizeof(T) in bytes, including trailing padding.
	Size() int64
	// Align returns the alignment requirement of T in bytes.
	Align() int64
	// String returns a C-like spelling of the type.
	String() string
}

// Primitive is a scalar C type (integer or floating point).
type Primitive struct {
	Name   string // C spelling, e.g. "int", "unsigned long"
	Bytes  int64  // sizeof
	Signed bool   // signed integer (meaningless when Float is true)
	Float  bool   // floating-point type
}

// Size implements Type.
func (p *Primitive) Size() int64 { return p.Bytes }

// Align implements Type. Scalars are self-aligned on LP64.
func (p *Primitive) Align() int64 { return p.Bytes }

// String implements Type.
func (p *Primitive) String() string { return p.Name }

// Builtin primitive types (LP64 data model, as on the paper's x86-64 host).
var (
	Char     = &Primitive{Name: "char", Bytes: 1, Signed: true}
	UChar    = &Primitive{Name: "unsigned char", Bytes: 1}
	Short    = &Primitive{Name: "short", Bytes: 2, Signed: true}
	UShort   = &Primitive{Name: "unsigned short", Bytes: 2}
	Int      = &Primitive{Name: "int", Bytes: 4, Signed: true}
	UInt     = &Primitive{Name: "unsigned int", Bytes: 4}
	Long     = &Primitive{Name: "long", Bytes: 8, Signed: true}
	ULong    = &Primitive{Name: "unsigned long", Bytes: 8}
	LongLong = &Primitive{Name: "long long", Bytes: 8, Signed: true}
	Float    = &Primitive{Name: "float", Bytes: 4, Float: true}
	Double   = &Primitive{Name: "double", Bytes: 8, Float: true}
)

// builtins maps C spellings to the builtin primitives, for the parsers.
var builtins = map[string]*Primitive{
	"char": Char, "unsigned char": UChar,
	"short": Short, "unsigned short": UShort,
	"int": Int, "unsigned int": UInt, "unsigned": UInt,
	"long": Long, "unsigned long": ULong,
	"long long": LongLong,
	"float":     Float, "double": Double,
}

// PrimitiveByName returns the builtin primitive with the given C spelling.
func PrimitiveByName(name string) (*Primitive, bool) {
	p, ok := builtins[name]
	return p, ok
}

// Array is a fixed-length C array type.
type Array struct {
	Elem Type
	Len  int64
}

// NewArray returns the array type elem[n]. It panics if n is negative.
func NewArray(elem Type, n int64) *Array {
	if n < 0 {
		panic(fmt.Sprintf("ctype: negative array length %d", n))
	}
	return &Array{Elem: elem, Len: n}
}

// Size implements Type.
func (a *Array) Size() int64 { return a.Elem.Size() * a.Len }

// Align implements Type: an array is aligned like its element.
func (a *Array) Align() int64 { return a.Elem.Align() }

// String implements Type.
func (a *Array) String() string { return fmt.Sprintf("%s[%d]", a.Elem, a.Len) }

// Pointer is a C pointer type. All pointers are 8 bytes on LP64.
type Pointer struct {
	Elem Type
}

// NewPointer returns the pointer type *elem.
func NewPointer(elem Type) *Pointer { return &Pointer{Elem: elem} }

// PointerSize is sizeof(void*) on the modelled LP64 host.
const PointerSize = 8

// Size implements Type.
func (p *Pointer) Size() int64 { return PointerSize }

// Align implements Type.
func (p *Pointer) Align() int64 { return PointerSize }

// String implements Type.
func (p *Pointer) String() string { return p.Elem.String() + "*" }

// Field is a named member of a Struct. Offset is filled in by NewStruct.
type Field struct {
	Name   string
	Type   Type
	Offset int64
}

// Struct is a C struct type with ABI-computed field offsets.
type Struct struct {
	// Name is the struct tag (may be empty for anonymous structs).
	Name   string
	Fields []Field

	size       int64
	align      int64
	incomplete bool
}

// NewIncompleteStruct returns a forward-declared struct. It may be used
// behind pointers immediately; call Complete to give it fields before using
// it by value.
func NewIncompleteStruct(name string) *Struct {
	return &Struct{Name: name, align: 1, incomplete: true}
}

// Incomplete reports whether the struct still lacks its definition.
func (s *Struct) Incomplete() bool { return s.incomplete }

// Complete lays out fields into a previously incomplete struct (same rules
// as NewStruct). A field may not have the struct itself as its direct type.
func (s *Struct) Complete(fields []Field) error {
	if !s.incomplete {
		return fmt.Errorf("ctype: struct %s redefined", s.Name)
	}
	for _, f := range fields {
		if f.Type == Type(s) {
			return fmt.Errorf("ctype: struct %s contains itself", s.Name)
		}
		if st, ok := f.Type.(*Struct); ok && st.Incomplete() {
			return fmt.Errorf("ctype: field %s has incomplete type %s", f.Name, st)
		}
	}
	laid := NewStruct(s.Name, fields)
	s.Fields = laid.Fields
	s.size = laid.size
	s.align = laid.align
	s.incomplete = false
	return nil
}

// NewStruct lays out the given fields per the System V AMD64 ABI: each field
// is placed at the next offset aligned to its own alignment; the struct's
// alignment is the maximum field alignment; the size is rounded up to the
// struct alignment. Field offsets in the input are ignored and recomputed.
func NewStruct(name string, fields []Field) *Struct {
	s := &Struct{Name: name, align: 1}
	var off int64
	for _, f := range fields {
		a := f.Type.Align()
		if a > s.align {
			s.align = a
		}
		off = AlignUp(off, a)
		f.Offset = off
		s.Fields = append(s.Fields, f)
		off += f.Type.Size()
	}
	s.size = AlignUp(off, s.align)
	return s
}

// Size implements Type.
func (s *Struct) Size() int64 { return s.size }

// Align implements Type.
func (s *Struct) Align() int64 { return s.align }

// String implements Type.
func (s *Struct) String() string {
	if s.Name != "" {
		return "struct " + s.Name
	}
	var b strings.Builder
	b.WriteString("struct {")
	for i, f := range s.Fields {
		if i > 0 {
			b.WriteString("; ")
		} else {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s %s", f.Type, f.Name)
	}
	b.WriteString(" }")
	return b.String()
}

// FieldByName returns the field with the given name.
func (s *Struct) FieldByName(name string) (Field, bool) {
	for _, f := range s.Fields {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

// FieldAt returns the field covering byte offset off (0 <= off < Size),
// skipping padding holes (for which ok is false).
func (s *Struct) FieldAt(off int64) (Field, bool) {
	for _, f := range s.Fields {
		if off >= f.Offset && off < f.Offset+f.Type.Size() {
			return f, true
		}
	}
	return Field{}, false
}

// AlignUp rounds off up to the next multiple of align (align must be >= 1).
func AlignUp(off, align int64) int64 {
	if align <= 1 {
		return off
	}
	rem := off % align
	if rem == 0 {
		return off
	}
	return off + align - rem
}

// IsAggregate reports whether t is a struct or array — the distinction the
// Gleipnir trace format encodes as the V (variable) vs S (structure) scope
// suffix.
func IsAggregate(t Type) bool {
	switch t.(type) {
	case *Struct, *Array:
		return true
	}
	return false
}
