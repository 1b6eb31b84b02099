package minic

import (
	"fmt"

	"tracedst/internal/ctype"
	"tracedst/internal/memmodel"
	"tracedst/internal/symtab"
)

// Value is a miniC runtime value. Integers and pointers live in I, floats in
// F; T is the C type.
type Value struct {
	T ctype.Type
	I int64
	F float64
	// heapSym tracks the block a freshly returned malloc pointer refers to,
	// so that assigning it to a typed pointer can retype the block for
	// debug-info purposes.
	heapSym *symtab.Symbol
}

// IntValue returns an int-typed value.
func IntValue(v int64) Value { return Value{T: ctype.Int, I: v} }

// boolValue returns C's int 1 for true and 0 for false.
func boolValue(b bool) Value {
	if b {
		return IntValue(1)
	}
	return IntValue(0)
}

func isFloatType(t ctype.Type) bool {
	p, ok := t.(*ctype.Primitive)
	return ok && p.Float
}

func isIntType(t ctype.Type) bool {
	p, ok := t.(*ctype.Primitive)
	return ok && !p.Float
}

func isPointerType(t ctype.Type) bool {
	_, ok := t.(*ctype.Pointer)
	return ok
}

// Bool reports C truthiness.
func (v Value) Bool() bool {
	if isFloatType(v.T) {
		return v.F != 0
	}
	return v.I != 0
}

// Float returns the value as float64 regardless of representation.
func (v Value) Float() float64 {
	if isFloatType(v.T) {
		return v.F
	}
	return float64(v.I)
}

// Int returns the value as int64, truncating floats as C does.
func (v Value) Int() int64 {
	if isFloatType(v.T) {
		return int64(v.F)
	}
	return v.I
}

// convert implements C conversion rules between scalar types.
func convert(v Value, to ctype.Type) (Value, error) {
	switch {
	case to == nil:
		return Value{}, fmt.Errorf("minic: conversion to void")
	case isFloatType(to):
		return Value{T: to, F: v.Float()}, nil
	case isIntType(to):
		return Value{T: to, I: truncate(v.Int(), to.(*ctype.Primitive))}, nil
	case isPointerType(to):
		return Value{T: to, I: v.Int(), heapSym: v.heapSym}, nil
	default:
		return Value{}, fmt.Errorf("minic: cannot convert %s to %s", v.T, to)
	}
}

// truncate cuts n to the width of integer type p, with sign or zero
// extension.
func truncate(n int64, p *ctype.Primitive) int64 {
	if p.Bytes < 8 {
		shift := uint(64 - p.Bytes*8)
		if p.Signed {
			return n << shift >> shift
		}
		return int64(uint64(n) << shift >> shift)
	}
	return n
}

// lvalue is a resolved memory place.
type lvalue struct {
	addr uint64
	t    ctype.Type
}

// readScalar reads a scalar (or pointer) value from memory without emitting
// an event.
func (in *Interp) readScalar(addr uint64, t ctype.Type) Value {
	switch tt := t.(type) {
	case *ctype.Primitive:
		if tt.Float {
			return Value{T: t, F: in.Space.Mem.ReadFloat(addr, int(tt.Bytes))}
		}
		if tt.Signed {
			return Value{T: t, I: in.Space.Mem.ReadInt(addr, int(tt.Bytes))}
		}
		return Value{T: t, I: int64(in.Space.Mem.ReadUint(addr, int(tt.Bytes)))}
	case *ctype.Pointer:
		return Value{T: t, I: int64(in.Space.Mem.ReadUint(addr, 8))}
	}
	failf("minic: cannot load aggregate %s as a value", t)
	return Value{}
}

// writeScalar writes a scalar value to memory without emitting an event.
func (in *Interp) writeScalar(addr uint64, t ctype.Type, v Value) {
	switch tt := t.(type) {
	case *ctype.Primitive:
		if tt.Float {
			in.Space.Mem.WriteFloat(addr, int(tt.Bytes), v.Float())
		} else {
			in.Space.Mem.WriteInt(addr, int(tt.Bytes), v.Int())
		}
		return
	case *ctype.Pointer:
		in.Space.Mem.WriteUint(addr, 8, uint64(v.Int()))
		return
	}
	panic(fmt.Sprintf("minic: writeScalar of aggregate %s", t))
}

// scalar is how compiled code reads, converts to and writes one scalar
// type, chosen once when the program is compiled.
type scalar struct {
	t    ctype.Type
	size int64
	// read loads a value of type t, conv converts a value to t, and write
	// stores a value conv returned.
	read  func(m *memmodel.Memory, addr uint64) Value
	conv  func(v Value) Value
	write func(m *memmodel.Memory, addr uint64, v Value)
}

// scalarOf returns t's scalar, or nil for an aggregate.
func scalarOf(t ctype.Type) *scalar {
	sc := &scalar{t: t}
	switch tt := t.(type) {
	case *ctype.Primitive:
		n := int(tt.Bytes)
		sc.size = tt.Bytes
		switch {
		case tt.Float:
			sc.read = func(m *memmodel.Memory, addr uint64) Value { return Value{T: t, F: m.ReadFloat(addr, n)} }
			sc.conv = func(v Value) Value { return Value{T: t, F: v.Float()} }
			sc.write = func(m *memmodel.Memory, addr uint64, v Value) { m.WriteFloat(addr, n, v.F) }
			return sc
		case tt.Signed:
			sc.read = func(m *memmodel.Memory, addr uint64) Value { return Value{T: t, I: m.ReadInt(addr, n)} }
		default:
			sc.read = func(m *memmodel.Memory, addr uint64) Value { return Value{T: t, I: int64(m.ReadUint(addr, n))} }
		}
		sc.conv = func(v Value) Value { return Value{T: t, I: truncate(v.Int(), tt)} }
		sc.write = func(m *memmodel.Memory, addr uint64, v Value) { m.WriteUint(addr, n, uint64(v.I)) }
	case *ctype.Pointer:
		sc.size = ctype.PointerSize
		sc.read = func(m *memmodel.Memory, addr uint64) Value { return Value{T: t, I: int64(m.ReadUint(addr, 8))} }
		sc.conv = func(v Value) Value { return Value{T: t, I: v.Int(), heapSym: v.heapSym} }
		sc.write = func(m *memmodel.Memory, addr uint64, v Value) { m.WriteUint(addr, 8, uint64(v.I)) }
	default:
		return nil
	}
	return sc
}

// store converts v to sc's type, writes it at addr and emits the S event.
func (in *Interp) store(sc *scalar, addr uint64, v Value) {
	sc.write(in.Space.Mem, addr, sc.conv(v))
	in.access(OpStore, addr, sc.size)
	if v.heapSym != nil {
		retype(v.heapSym, sc.t)
	}
}

// storeTo is store for a place whose type only the running program knows.
func (in *Interp) storeTo(lv lvalue, v Value) {
	cv, err := convert(v, lv.t)
	if err != nil {
		fail(err)
	}
	in.writeScalar(lv.addr, lv.t, cv)
	in.access(OpStore, lv.addr, lv.t.Size())
	if v.heapSym != nil {
		retype(v.heapSym, lv.t)
	}
}

// retype implements malloc retyping: assigning a fresh heap pointer to a
// typed pointer gives the block that element type for debug-info purposes.
func retype(heap *symtab.Symbol, t ctype.Type) {
	if pt, ok := t.(*ctype.Pointer); ok {
		if esz := pt.Elem.Size(); esz > 0 {
			if n := heap.Type.Size() / esz; n > 0 {
				heap.Type = ctype.NewArray(pt.Elem, n)
			}
		}
	}
}

// binop is one binary operator. An arithmetic operator has int and, where
// C defines it on floats, float; a relational one has cmp, which compares
// integers as float64 too.
type binop struct {
	op    string
	int   func(a, b int64) int64
	float func(a, b float64) float64
	cmp   func(a, b float64) bool
}

var binops = map[string]*binop{}

func init() {
	for _, o := range []*binop{
		{op: "+", int: func(a, b int64) int64 { return a + b }, float: func(a, b float64) float64 { return a + b }},
		{op: "-", int: func(a, b int64) int64 { return a - b }, float: func(a, b float64) float64 { return a - b }},
		{op: "*", int: func(a, b int64) int64 { return a * b }, float: func(a, b float64) float64 { return a * b }},
		{op: "/", int: func(a, b int64) int64 {
			if b == 0 {
				failf("minic: division by zero")
			}
			return a / b
		}, float: func(a, b float64) float64 {
			if b == 0 {
				failf("minic: floating division by zero")
			}
			return a / b
		}},
		{op: "%", int: func(a, b int64) int64 {
			if b == 0 {
				failf("minic: modulo by zero")
			}
			return a % b
		}},
		{op: "<<", int: func(a, b int64) int64 { return a << uint(b) }},
		{op: ">>", int: func(a, b int64) int64 { return a >> uint(b) }},
		{op: "&", int: func(a, b int64) int64 { return a & b }},
		{op: "|", int: func(a, b int64) int64 { return a | b }},
		{op: "^", int: func(a, b int64) int64 { return a ^ b }},
		{op: "==", cmp: func(a, b float64) bool { return a == b }},
		{op: "!=", cmp: func(a, b float64) bool { return a != b }},
		{op: "<", cmp: func(a, b float64) bool { return a < b }},
		{op: ">", cmp: func(a, b float64) bool { return a > b }},
		{op: "<=", cmp: func(a, b float64) bool { return a <= b }},
		{op: ">=", cmp: func(a, b float64) bool { return a >= b }},
	} {
		binops[o.op] = o
	}
}

// apply computes x op y by the operands' types — including pointer
// arithmetic — for operands whose types only the running program knows.
func (o *binop) apply(x, y Value) Value {
	if xp, ok := x.T.(*ctype.Pointer); ok {
		switch {
		case o.op == "+":
			return Value{T: x.T, I: x.I + y.Int()*xp.Elem.Size()}
		case o.op == "-":
			if _, yIsPtr := y.T.(*ctype.Pointer); yIsPtr {
				return Value{T: ctype.Long, I: (x.I - y.I) / xp.Elem.Size()}
			}
			return Value{T: x.T, I: x.I - y.Int()*xp.Elem.Size()}
		case o.cmp != nil:
			return boolValue(o.cmp(float64(x.I), float64(y.Int())))
		}
		failf("minic: pointer %s not supported", o.op)
	}
	if yp, ok := y.T.(*ctype.Pointer); ok {
		if o.op == "+" {
			return Value{T: y.T, I: y.I + x.Int()*yp.Elem.Size()}
		}
		if o.cmp != nil {
			return boolValue(o.cmp(float64(x.Int()), float64(y.I)))
		}
		failf("minic: int %s pointer not supported", o.op)
	}
	if isFloatType(x.T) || isFloatType(y.T) {
		switch {
		case o.cmp != nil:
			return boolValue(o.cmp(x.Float(), y.Float()))
		case o.float == nil:
			failf("minic: operator %s not defined on floats", o.op)
		}
		return Value{T: ctype.Double, F: o.float(x.Float(), y.Float())}
	}
	if o.cmp != nil {
		return boolValue(o.cmp(float64(x.I), float64(y.I)))
	}
	return IntValue(o.int(x.I, y.I))
}

// isArith reports whether t is an arithmetic (non-pointer scalar) type.
func isArith(t ctype.Type) bool {
	_, ok := t.(*ctype.Primitive)
	return ok
}
