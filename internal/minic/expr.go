package minic

import (
	"fmt"

	"tracedst/internal/ctype"
)

// lookupVar resolves a name to its live symbol: innermost scope first, then
// globals.
func (in *Interp) lookupVar(st *execState, name string) (lvalue, error) {
	if sym, ok := st.lookup(name); ok {
		return lvalue{addr: sym.Addr, t: sym.Type}, nil
	}
	if sym, ok := in.globalsByName[name]; ok {
		return lvalue{addr: sym.Addr, t: sym.Type}, nil
	}
	return lvalue{}, fmt.Errorf("minic: undefined variable %q in %s", name, in.curFn())
}

// readScalar reads a scalar (or pointer) value from memory without emitting
// an event.
func (in *Interp) readScalar(addr uint64, t ctype.Type) (Value, error) {
	switch tt := t.(type) {
	case *ctype.Primitive:
		if tt.Float {
			return Value{T: t, F: in.Space.Mem.ReadFloat(addr, int(tt.Bytes))}, nil
		}
		if tt.Signed {
			return Value{T: t, I: in.Space.Mem.ReadInt(addr, int(tt.Bytes))}, nil
		}
		return Value{T: t, I: int64(in.Space.Mem.ReadUint(addr, int(tt.Bytes)))}, nil
	case *ctype.Pointer:
		return Value{T: t, I: int64(in.Space.Mem.ReadUint(addr, 8))}, nil
	}
	return Value{}, fmt.Errorf("minic: cannot load aggregate %s as a value", t)
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

// loadFrom loads a scalar lvalue, emitting the L event.
func (in *Interp) loadFrom(lv lvalue) (Value, error) {
	v, err := in.readScalar(lv.addr, lv.t)
	if err != nil {
		return Value{}, err
	}
	in.access(OpLoad, lv.addr, lv.t.Size())
	return v, nil
}

// storeTo converts v to the lvalue's type, writes it, and emits the S event.
func (in *Interp) storeTo(lv lvalue, v Value) error {
	cv, err := convert(v, lv.t)
	if err != nil {
		return err
	}
	in.writeScalar(lv.addr, lv.t, cv)
	in.access(OpStore, lv.addr, lv.t.Size())
	// malloc-retyping: assigning a fresh heap pointer to a typed pointer
	// gives the block that element type for debug-info purposes.
	if v.heapSym != nil {
		if pt, ok := lv.t.(*ctype.Pointer); ok {
			if esz := pt.Elem.Size(); esz > 0 {
				n := v.heapSym.Type.Size() / esz
				if n > 0 {
					v.heapSym.Type = ctype.NewArray(pt.Elem, n)
				}
			}
		}
	}
	return nil
}

// evalLValue computes the address of an assignable expression. Loads
// performed along the way (subscript variables, pointer fields) emit events,
// deduplicated per outermost lvalue computation.
func (in *Interp) evalLValue(st *execState, e Expr) (lvalue, error) {
	if in.loadedFrom >= 0 {
		return in.lvalueInner(st, e)
	}
	in.loadedFrom = len(in.loaded)
	lv, err := in.lvalueInner(st, e)
	in.loaded, in.loadedFrom = in.loaded[:in.loadedFrom], -1
	return lv, err
}

func (in *Interp) lvalueInner(st *execState, e Expr) (lvalue, error) {
	switch n := e.(type) {
	case *Ident:
		return in.lookupVar(st, n.Name)
	case *Index:
		base, elem, err := in.indexBase(st, n.X)
		if err != nil {
			return lvalue{}, err
		}
		iv, err := in.evalExpr(st, n.I)
		if err != nil {
			return lvalue{}, err
		}
		return lvalue{addr: base + uint64(iv.Int()*elem.Size()), t: elem}, nil
	case *Member:
		if n.Arrow {
			pv, err := in.evalExpr(st, n.X)
			if err != nil {
				return lvalue{}, err
			}
			pt, ok := pv.T.(*ctype.Pointer)
			if !ok {
				return lvalue{}, fmt.Errorf("minic: -> applied to non-pointer %s", pv.T)
			}
			stc, ok := pt.Elem.(*ctype.Struct)
			if !ok {
				return lvalue{}, fmt.Errorf("minic: -> applied to pointer to non-struct %s", pt.Elem)
			}
			f, ok := stc.FieldByName(n.Name)
			if !ok {
				return lvalue{}, fmt.Errorf("minic: %s has no field %q", stc, n.Name)
			}
			return lvalue{addr: uint64(pv.Int()) + uint64(f.Offset), t: f.Type}, nil
		}
		lv, err := in.lvalueInner(st, n.X)
		if err != nil {
			return lvalue{}, err
		}
		stc, ok := lv.t.(*ctype.Struct)
		if !ok {
			return lvalue{}, fmt.Errorf("minic: . applied to non-struct %s", lv.t)
		}
		f, ok := stc.FieldByName(n.Name)
		if !ok {
			return lvalue{}, fmt.Errorf("minic: %s has no field %q", stc, n.Name)
		}
		return lvalue{addr: lv.addr + uint64(f.Offset), t: f.Type}, nil
	case *Unary:
		if n.Op == "*" && !n.Postfix {
			pv, err := in.evalExpr(st, n.X)
			if err != nil {
				return lvalue{}, err
			}
			pt, ok := pv.T.(*ctype.Pointer)
			if !ok {
				return lvalue{}, fmt.Errorf("minic: * applied to non-pointer %s", pv.T)
			}
			return lvalue{addr: uint64(pv.Int()), t: pt.Elem}, nil
		}
	}
	return lvalue{}, fmt.Errorf("minic: expression %T is not assignable", e)
}

// indexBase resolves the base of a subscript: arrays yield their storage
// address directly; pointers are loaded (with an L event) to fetch the base.
func (in *Interp) indexBase(st *execState, x Expr) (uint64, ctype.Type, error) {
	// Prefer treating x as a place so arrays do not decay prematurely.
	if lv, err := in.lvalueInner(st, x); err == nil {
		switch tt := lv.t.(type) {
		case *ctype.Array:
			return lv.addr, tt.Elem, nil
		case *ctype.Pointer:
			pv, err := in.loadFrom(lv)
			if err != nil {
				return 0, nil, err
			}
			return uint64(pv.Int()), tt.Elem, nil
		default:
			return 0, nil, fmt.Errorf("minic: subscript of non-array %s", lv.t)
		}
	}
	// Fall back to an rvalue pointer (e.g. (p+1)[2]).
	pv, err := in.evalExpr(st, x)
	if err != nil {
		return 0, nil, err
	}
	pt, ok := pv.T.(*ctype.Pointer)
	if !ok {
		return 0, nil, fmt.Errorf("minic: subscript of non-pointer %s", pv.T)
	}
	return uint64(pv.Int()), pt.Elem, nil
}

// evalExpr evaluates an expression for its value, emitting load events for
// every variable read, exactly as the compiled program would.
func (in *Interp) evalExpr(st *execState, e Expr) (Value, error) {
	switch n := e.(type) {
	case *IntLit:
		return IntValue(n.V), nil
	case *FloatLit:
		return Value{T: ctype.Double, F: n.V}, nil
	case *StrLit:
		return Value{}, fmt.Errorf("minic: string literals are not supported in expressions")
	case *Ident:
		lv, err := in.lookupVar(st, n.Name)
		if err != nil {
			return Value{}, err
		}
		return in.rvalue(lv)
	case *Index, *Member:
		lv, err := in.evalLValue(st, e)
		if err != nil {
			return Value{}, err
		}
		return in.rvalue(lv)
	case *Unary:
		return in.evalUnary(st, n)
	case *Binary:
		return in.evalBinary(st, n)
	case *Assign:
		return in.evalAssign(st, n)
	case *Cast:
		v, err := in.evalExpr(st, n.X)
		if err != nil {
			return Value{}, err
		}
		return convert(v, n.Type)
	case *SizeofType:
		return Value{T: ctype.ULong, I: n.Type.Size()}, nil
	case *SizeofExpr:
		t, err := in.typeOf(st, n.X)
		if err != nil {
			return Value{}, err
		}
		return Value{T: ctype.ULong, I: t.Size()}, nil
	case *Cond:
		c, err := in.evalExpr(st, n.C)
		if err != nil {
			return Value{}, err
		}
		if c.Bool() {
			return in.evalExpr(st, n.T)
		}
		return in.evalExpr(st, n.F)
	case *Call:
		return in.evalCall(st, n)
	case *Comma:
		var v Value
		for _, x := range n.List {
			var err error
			v, err = in.evalExpr(st, x)
			if err != nil {
				return Value{}, err
			}
		}
		return v, nil
	}
	return Value{}, fmt.Errorf("minic: unhandled expression %T", e)
}

// rvalue converts a place to a value: aggregates decay to pointers with no
// memory traffic; scalars are loaded.
func (in *Interp) rvalue(lv lvalue) (Value, error) {
	switch tt := lv.t.(type) {
	case *ctype.Array:
		return Value{T: ctype.NewPointer(tt.Elem), I: int64(lv.addr)}, nil
	case *ctype.Struct:
		return Value{}, fmt.Errorf("minic: struct values are not supported (use members of %s)", tt)
	}
	return in.loadFrom(lv)
}

// typeOf computes the static type of an expression without evaluating it
// (used by sizeof).
func (in *Interp) typeOf(st *execState, e Expr) (ctype.Type, error) {
	switch n := e.(type) {
	case *IntLit:
		return ctype.Int, nil
	case *FloatLit:
		return ctype.Double, nil
	case *Ident:
		lv, err := in.lookupVar(st, n.Name)
		if err != nil {
			return nil, err
		}
		return lv.t, nil
	case *Index:
		bt, err := in.typeOf(st, n.X)
		if err != nil {
			return nil, err
		}
		switch tt := bt.(type) {
		case *ctype.Array:
			return tt.Elem, nil
		case *ctype.Pointer:
			return tt.Elem, nil
		}
		return nil, fmt.Errorf("minic: sizeof subscript of %s", bt)
	case *Member:
		bt, err := in.typeOf(st, n.X)
		if err != nil {
			return nil, err
		}
		if n.Arrow {
			pt, ok := bt.(*ctype.Pointer)
			if !ok {
				return nil, fmt.Errorf("minic: -> on %s", bt)
			}
			bt = pt.Elem
		}
		stc, ok := bt.(*ctype.Struct)
		if !ok {
			return nil, fmt.Errorf("minic: member of %s", bt)
		}
		f, ok := stc.FieldByName(n.Name)
		if !ok {
			return nil, fmt.Errorf("minic: %s has no field %q", stc, n.Name)
		}
		return f.Type, nil
	case *Cast:
		return n.Type, nil
	case *Unary:
		if n.Op == "*" {
			bt, err := in.typeOf(st, n.X)
			if err != nil {
				return nil, err
			}
			pt, ok := bt.(*ctype.Pointer)
			if !ok {
				return nil, fmt.Errorf("minic: * on %s", bt)
			}
			return pt.Elem, nil
		}
		return in.typeOf(st, n.X)
	}
	return ctype.Int, nil
}

func (in *Interp) evalUnary(st *execState, n *Unary) (Value, error) {
	switch n.Op {
	case "-", "!", "~":
		v, err := in.evalExpr(st, n.X)
		if err != nil {
			return Value{}, err
		}
		switch n.Op {
		case "-":
			if isFloatType(v.T) {
				return Value{T: v.T, F: -v.F}, nil
			}
			return Value{T: v.T, I: -v.I}, nil
		case "!":
			if v.Bool() {
				return IntValue(0), nil
			}
			return IntValue(1), nil
		default: // "~"
			return Value{T: v.T, I: ^v.Int()}, nil
		}
	case "&":
		lv, err := in.evalLValue(st, n.X)
		if err != nil {
			return Value{}, err
		}
		t := lv.t
		if at, ok := t.(*ctype.Array); ok {
			t = at.Elem // &arr ≈ arr for our addressing purposes
		}
		return Value{T: ctype.NewPointer(t), I: int64(lv.addr)}, nil
	case "*":
		lv, err := in.evalLValue(st, n)
		if err != nil {
			return Value{}, err
		}
		return in.rvalue(lv)
	case "++", "--":
		// A read-modify-write: one M event, as in the paper's loop
		// increments ("M 7ff0001b8 4 main LV 0 1 i").
		lv, err := in.evalLValue(st, n.X)
		if err != nil {
			return Value{}, err
		}
		old, err := in.readScalar(lv.addr, lv.t)
		if err != nil {
			return Value{}, err
		}
		delta := int64(1)
		if n.Op == "--" {
			delta = -1
		}
		var nv Value
		switch {
		case isFloatType(lv.t):
			nv = Value{T: lv.t, F: old.F + float64(delta)}
		case isPointerType(lv.t):
			pt := lv.t.(*ctype.Pointer)
			nv = Value{T: lv.t, I: old.I + delta*pt.Elem.Size()}
		default:
			nv = Value{T: lv.t, I: old.I + delta}
		}
		cv, err := convert(nv, lv.t)
		if err != nil {
			return Value{}, err
		}
		in.writeScalar(lv.addr, lv.t, cv)
		in.access(OpModify, lv.addr, lv.t.Size())
		if n.Postfix {
			return old, nil
		}
		return cv, nil
	}
	return Value{}, fmt.Errorf("minic: unhandled unary %q", n.Op)
}

func (in *Interp) evalBinary(st *execState, n *Binary) (Value, error) {
	// Short-circuit logicals.
	if n.Op == "&&" || n.Op == "||" {
		x, err := in.evalExpr(st, n.X)
		if err != nil {
			return Value{}, err
		}
		if n.Op == "&&" && !x.Bool() {
			return IntValue(0), nil
		}
		if n.Op == "||" && x.Bool() {
			return IntValue(1), nil
		}
		y, err := in.evalExpr(st, n.Y)
		if err != nil {
			return Value{}, err
		}
		if y.Bool() {
			return IntValue(1), nil
		}
		return IntValue(0), nil
	}
	x, err := in.evalExpr(st, n.X)
	if err != nil {
		return Value{}, err
	}
	y, err := in.evalExpr(st, n.Y)
	if err != nil {
		return Value{}, err
	}
	return applyBinary(n.Op, x, y)
}

// applyBinary implements the arithmetic, relational and bitwise operators,
// including pointer arithmetic.
func applyBinary(op string, x, y Value) (Value, error) {
	// Pointer arithmetic.
	if xp, ok := x.T.(*ctype.Pointer); ok {
		switch op {
		case "+":
			return Value{T: x.T, I: x.I + y.Int()*xp.Elem.Size()}, nil
		case "-":
			if _, yIsPtr := y.T.(*ctype.Pointer); yIsPtr {
				return Value{T: ctype.Long, I: (x.I - y.I) / xp.Elem.Size()}, nil
			}
			return Value{T: x.T, I: x.I - y.Int()*xp.Elem.Size()}, nil
		case "==", "!=", "<", ">", "<=", ">=":
			return compare(op, float64(x.I), float64(y.Int())), nil
		}
		return Value{}, fmt.Errorf("minic: pointer %s not supported", op)
	}
	if yp, ok := y.T.(*ctype.Pointer); ok {
		if op == "+" {
			return Value{T: y.T, I: y.I + x.Int()*yp.Elem.Size()}, nil
		}
		if op == "==" || op == "!=" || op == "<" || op == ">" || op == "<=" || op == ">=" {
			return compare(op, float64(x.Int()), float64(y.I)), nil
		}
		return Value{}, fmt.Errorf("minic: int %s pointer not supported", op)
	}

	if usualArith(x, y) {
		a, b := x.Float(), y.Float()
		switch op {
		case "+":
			return Value{T: ctype.Double, F: a + b}, nil
		case "-":
			return Value{T: ctype.Double, F: a - b}, nil
		case "*":
			return Value{T: ctype.Double, F: a * b}, nil
		case "/":
			if b == 0 {
				return Value{}, fmt.Errorf("minic: floating division by zero")
			}
			return Value{T: ctype.Double, F: a / b}, nil
		case "==", "!=", "<", ">", "<=", ">=":
			return compare(op, a, b), nil
		}
		return Value{}, fmt.Errorf("minic: operator %s not defined on floats", op)
	}

	a, b := x.Int(), y.Int()
	switch op {
	case "+":
		return IntValue(a + b), nil
	case "-":
		return IntValue(a - b), nil
	case "*":
		return IntValue(a * b), nil
	case "/":
		if b == 0 {
			return Value{}, fmt.Errorf("minic: division by zero")
		}
		return IntValue(a / b), nil
	case "%":
		if b == 0 {
			return Value{}, fmt.Errorf("minic: modulo by zero")
		}
		return IntValue(a % b), nil
	case "<<":
		return IntValue(a << uint(b)), nil
	case ">>":
		return IntValue(a >> uint(b)), nil
	case "&":
		return IntValue(a & b), nil
	case "|":
		return IntValue(a | b), nil
	case "^":
		return IntValue(a ^ b), nil
	case "==", "!=", "<", ">", "<=", ">=":
		return compare(op, float64(a), float64(b)), nil
	}
	return Value{}, fmt.Errorf("minic: unhandled binary %q", op)
}

func compare(op string, a, b float64) Value {
	var r bool
	switch op {
	case "==":
		r = a == b
	case "!=":
		r = a != b
	case "<":
		r = a < b
	case ">":
		r = a > b
	case "<=":
		r = a <= b
	case ">=":
		r = a >= b
	}
	if r {
		return IntValue(1)
	}
	return IntValue(0)
}

// evalAssign implements simple and compound assignment. The evaluation
// order matches the paper's traces: the right-hand side is evaluated first
// (its loads appear first), then the target address is computed (subscript
// loads), then the store (or modify, for compound ops) is emitted.
func (in *Interp) evalAssign(st *execState, n *Assign) (Value, error) {
	rhs, err := in.evalExpr(st, n.RHS)
	if err != nil {
		return Value{}, err
	}
	lv, err := in.evalLValue(st, n.LHS)
	if err != nil {
		return Value{}, err
	}
	if n.Op == "=" {
		if err := in.storeTo(lv, rhs); err != nil {
			return Value{}, err
		}
		return rhs, nil
	}
	// Compound assignment: read-modify-write, one M event.
	old, err := in.readScalar(lv.addr, lv.t)
	if err != nil {
		return Value{}, err
	}
	nv, err := applyBinary(n.Op[:len(n.Op)-1], old, rhs)
	if err != nil {
		return Value{}, err
	}
	cv, err := convert(nv, lv.t)
	if err != nil {
		return Value{}, err
	}
	in.writeScalar(lv.addr, lv.t, cv)
	in.access(OpModify, lv.addr, lv.t.Size())
	return cv, nil
}

// evalCall dispatches builtin and user functions. Arguments are evaluated
// in the caller (emitting their loads) before the call protocol runs.
func (in *Interp) evalCall(st *execState, n *Call) (Value, error) {
	switch n.Name {
	case "malloc", "calloc":
		return in.evalMalloc(st, n)
	case "free":
		if len(n.Args) != 1 {
			return Value{}, fmt.Errorf("minic: free takes one argument")
		}
		pv, err := in.evalExpr(st, n.Args[0])
		if err != nil {
			return Value{}, err
		}
		if !in.Syms.RemoveHeap(uint64(pv.Int())) {
			return Value{}, fmt.Errorf("minic: free of unallocated pointer %#x", pv.Int())
		}
		return IntValue(0), nil
	}
	fd, ok := in.prog.Funcs[n.Name]
	if !ok {
		return Value{}, fmt.Errorf("minic: line %d: call to undefined function %q", n.Line, n.Name)
	}
	args := make([]Value, len(n.Args))
	for i, a := range n.Args {
		v, err := in.evalExpr(st, a)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	return in.call(fd, args)
}

func (in *Interp) evalMalloc(st *execState, n *Call) (Value, error) {
	var size int64
	switch {
	case n.Name == "malloc" && len(n.Args) == 1:
		v, err := in.evalExpr(st, n.Args[0])
		if err != nil {
			return Value{}, err
		}
		size = v.Int()
	case n.Name == "calloc" && len(n.Args) == 2:
		a, err := in.evalExpr(st, n.Args[0])
		if err != nil {
			return Value{}, err
		}
		b, err := in.evalExpr(st, n.Args[1])
		if err != nil {
			return Value{}, err
		}
		size = a.Int() * b.Int()
	default:
		return Value{}, fmt.Errorf("minic: bad %s arity", n.Name)
	}
	if size <= 0 {
		return Value{}, fmt.Errorf("minic: %s of non-positive size %d", n.Name, size)
	}
	addr, err := in.Space.Heap.Alloc(size, 16)
	if err != nil {
		return Value{}, err
	}
	in.heapSeq++
	name := fmt.Sprintf("heap_%s_%d", in.curFn(), in.heapSeq)
	sym, err := in.Syms.AddHeap(name, addr, ctype.NewArray(ctype.Char, size), in.curFn())
	if err != nil {
		return Value{}, err
	}
	return Value{T: ctype.NewPointer(ctype.Char), I: int64(addr), heapSym: sym}, nil
}
