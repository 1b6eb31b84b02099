package minic

import (
	"fmt"

	"tracedst/internal/ctype"
)

// evalFn computes one compiled expression's value.
type evalFn func(in *Interp) Value

// expr is a compiled expression: the static type of its value, nil where
// only the running program decides it (a call's result, a conditional
// whose arms differ), and the code computing the value. An expression of
// static integer or floating type may also compute it as a bare int64 (i)
// or float64 (f), so the operations that consume it build no Value.
type expr struct {
	t    ctype.Type
	eval evalFn
	i    func(in *Interp) int64
	f    func(in *Interp) float64
}

func intExpr(t ctype.Type, i func(*Interp) int64) expr {
	return expr{t: t, i: i, eval: func(in *Interp) Value { return Value{T: t, I: i(in)} }}
}

func floatExpr(t ctype.Type, f func(*Interp) float64) expr {
	return expr{t: t, f: f, eval: func(in *Interp) Value { return Value{T: t, F: f(in)} }}
}

// ints returns the int64 value of e, an expression of static integer type.
func (e expr) ints() func(*Interp) int64 {
	if e.i != nil {
		return e.i
	}
	ev := e.eval
	return func(in *Interp) int64 { return ev(in).I }
}

// floats returns the value of e, an expression of static arithmetic type,
// as a float64.
func (e expr) floats() func(*Interp) float64 {
	switch {
	case e.f != nil:
		return e.f
	case e.i != nil:
		i := e.i
		return func(in *Interp) float64 { return float64(i(in)) }
	}
	ev := e.eval
	return func(in *Interp) float64 { return ev(in).Float() }
}

// effect returns e evaluated for its effects alone.
func (e expr) effect() func(*Interp) {
	switch {
	case e.i != nil:
		i := e.i
		return func(in *Interp) { i(in) }
	case e.f != nil:
		f := e.f
		return func(in *Interp) { f(in) }
	}
	ev := e.eval
	return func(in *Interp) { ev(in) }
}

// place is a compiled lvalue computation: the static type of the place,
// nil where only the running program decides it, and the code computing
// its address and type (at) — for a place of static type also its address
// alone (addr).
type place struct {
	t    ctype.Type
	addr func(in *Interp) uint64
	at   func(in *Interp) lvalue
}

func staticPlace(t ctype.Type, addr func(*Interp) uint64) place {
	return place{t: t, addr: addr, at: func(in *Interp) lvalue { return lvalue{addr(in), t} }}
}

func dynamicPlace(at func(*Interp) lvalue) place { return place{at: at} }

// charPtr is the type of a pointer malloc returns.
var charPtr = ctype.NewPointer(ctype.Char)

// constant returns an expression whose value is v.
func constant(v Value) expr {
	e := expr{t: v.T, eval: func(*Interp) Value { return v }}
	switch {
	case isIntType(v.T):
		e.i = func(*Interp) int64 { return v.I }
	case isFloatType(v.T):
		e.f = func(*Interp) float64 { return v.F }
	}
	return e
}

// failing returns an expression that reports err when evaluated.
func failing(err error) expr {
	return expr{eval: func(*Interp) Value {
		fail(err)
		return Value{}
	}}
}

// expr compiles e for its value, emitting a load event for every variable
// it reads, exactly as the compiled program would.
func (c *compiler) expr(e Expr) expr {
	switch n := e.(type) {
	case *IntLit:
		return constant(IntValue(n.V))
	case *FloatLit:
		return constant(Value{T: ctype.Double, F: n.V})
	case *StrLit:
		return failing(fmt.Errorf("minic: string literals are not supported in expressions"))
	case *Ident:
		return c.load(c.ident(n.Name))
	case *Index, *Member:
		return c.load(c.lvalue(e))
	case *Unary:
		return c.unary(n)
	case *Binary:
		return c.binary(n)
	case *Assign:
		return c.assign(n)
	case *Cast:
		return c.cast(c.expr(n.X), n.Type)
	case *SizeofType:
		return constant(Value{T: ctype.ULong, I: n.Type.Size()})
	case *SizeofExpr:
		// The operand is not evaluated: only its type is computed.
		t := c.typeOf(n.X)
		return intExpr(ctype.ULong, func(in *Interp) int64 { return t(in).Size() })
	case *Cond:
		cond, x, y := c.truth(n.C), c.expr(n.T), c.expr(n.F)
		t, xe, ye := x.t, x.eval, y.eval
		if y.t != t {
			t = nil
		}
		return expr{t: t, eval: func(in *Interp) Value {
			if cond(in) {
				return xe(in)
			}
			return ye(in)
		}}
	case *Call:
		return c.call(n)
	case *Comma:
		xs := make([]evalFn, len(n.List))
		var t ctype.Type
		for i, x := range n.List {
			e := c.expr(x)
			xs[i], t = e.eval, e.t
		}
		return expr{t: t, eval: func(in *Interp) Value {
			var v Value
			for _, x := range xs {
				v = x(in)
			}
			return v
		}}
	}
	return failing(fmt.Errorf("minic: unhandled expression %T", e))
}

// cast compiles the conversion of x to type to.
func (c *compiler) cast(x expr, to ctype.Type) expr {
	switch {
	case isFloatType(to) && isArith(x.t):
		return floatExpr(to, x.floats())
	case isIntType(to) && isFloatType(x.t):
		xf, p := x.floats(), to.(*ctype.Primitive)
		return intExpr(to, func(in *Interp) int64 { return truncate(int64(xf(in)), p) })
	case isIntType(to) && isIntType(x.t):
		xi, p := x.ints(), to.(*ctype.Primitive)
		return intExpr(to, func(in *Interp) int64 { return truncate(xi(in), p) })
	}
	xe := x.eval
	if sc := scalarOf(to); sc != nil {
		conv := sc.conv
		return expr{t: to, eval: func(in *Interp) Value { return conv(xe(in)) }}
	}
	return expr{eval: func(in *Interp) Value {
		v, err := convert(xe(in), to)
		if err != nil {
			fail(err)
		}
		return v
	}}
}

// truth compiles e as a condition: its C truthiness.
func (c *compiler) truth(e Expr) func(*Interp) bool {
	var x expr
	if b, ok := e.(*Binary); ok && binops[b.Op] != nil {
		o, l, r := binops[b.Op], c.expr(b.X), c.expr(b.Y)
		if o.cmp != nil && isArith(l.t) && isArith(r.t) {
			return compare(o.op, l, r)
		}
		x = c.binaryOf(o, l, r)
	} else {
		x = c.expr(e)
	}
	switch {
	case x.i != nil:
		i := x.i
		return func(in *Interp) bool { return i(in) != 0 }
	case x.f != nil:
		f := x.f
		return func(in *Interp) bool { return f(in) != 0 }
	}
	ev := x.eval
	switch {
	case isFloatType(x.t):
		return func(in *Interp) bool { return ev(in).F != 0 }
	case x.t != nil:
		return func(in *Interp) bool { return ev(in).I != 0 }
	}
	return func(in *Interp) bool { return ev(in).Bool() }
}

// lvalue compiles the place e names. Outside an lvalue computation it
// starts one, whose loads are deduplicated (see Interp); the load of the
// place itself, if any, follows the computation.
func (c *compiler) lvalue(e Expr) place {
	if c.nested {
		return c.place(e)
	}
	c.nested = true
	p := c.place(e)
	c.nested = false
	if addr := p.addr; addr != nil {
		return staticPlace(p.t, func(in *Interp) uint64 {
			in.loadedFrom = len(in.loaded)
			a := addr(in)
			in.loaded, in.loadedFrom = in.loaded[:in.loadedFrom], -1
			return a
		})
	}
	at := p.at
	return dynamicPlace(func(in *Interp) lvalue {
		in.loadedFrom = len(in.loaded)
		lv := at(in)
		in.loaded, in.loadedFrom = in.loaded[:in.loadedFrom], -1
		return lv
	})
}

// assignable reports whether e names a place.
func assignable(e Expr) bool {
	switch n := e.(type) {
	case *Ident, *Index, *Member:
		return true
	case *Unary:
		return n.Op == "*" && !n.Postfix
	}
	return false
}

// place compiles the inside of an lvalue computation. Loads performed
// along the way (subscript variables, pointer fields) emit events.
func (c *compiler) place(e Expr) place {
	switch n := e.(type) {
	case *Ident:
		return c.ident(n.Name)
	case *Index:
		return c.index(n)
	case *Member:
		if n.Arrow {
			return c.arrow(n)
		}
		return c.dot(n)
	case *Unary:
		if n.Op == "*" && !n.Postfix {
			return c.deref(n.X)
		}
	}
	err := fmt.Errorf("minic: expression %T is not assignable", e)
	return dynamicPlace(func(*Interp) lvalue {
		fail(err)
		return lvalue{}
	})
}

// index compiles x[i]: the base, then the subscript, bound to the
// element size.
func (c *compiler) index(n *Index) place {
	base, i := c.elems(n.X), c.expr(n.I)
	if base.addr == nil {
		at, ie := base.at, i.eval
		return dynamicPlace(func(in *Interp) lvalue {
			b := at(in)
			return lvalue{b.addr + uint64(ie(in).Int()*b.t.Size()), b.t}
		})
	}
	addr, esz := base.addr, base.t.Size()
	if isIntType(i.t) {
		ii := i.ints()
		return staticPlace(base.t, func(in *Interp) uint64 {
			b := addr(in)
			return b + uint64(ii(in)*esz)
		})
	}
	ie := i.eval
	return staticPlace(base.t, func(in *Interp) uint64 {
		b := addr(in)
		return b + uint64(ie(in).Int()*esz)
	})
}

// elems compiles the base of a subscript, as the place of the element it
// counts from: an array is its own storage, and a pointer is loaded (with
// an L event) to find it. A base that names no place is a pointer value
// (e.g. (p+1)[2]).
func (c *compiler) elems(x Expr) place {
	if !assignable(x) {
		v := c.expr(x)
		ev := v.eval
		if pt, ok := v.t.(*ctype.Pointer); ok {
			return staticPlace(pt.Elem, func(in *Interp) uint64 { return uint64(ev(in).I) })
		}
		return dynamicPlace(func(in *Interp) lvalue {
			pv := ev(in)
			pt, ok := pv.T.(*ctype.Pointer)
			if !ok {
				failf("minic: subscript of non-pointer %s", pv.T)
			}
			return lvalue{uint64(pv.Int()), pt.Elem}
		})
	}
	p := c.place(x)
	switch t := p.t.(type) {
	case *ctype.Array:
		return staticPlace(t.Elem, p.addr)
	case *ctype.Pointer:
		addr := p.addr
		return staticPlace(t.Elem, func(in *Interp) uint64 { return in.loadPointer(addr(in)) })
	}
	at := p.at
	return dynamicPlace(func(in *Interp) lvalue {
		lv := at(in)
		switch tt := lv.t.(type) {
		case *ctype.Array:
			return lvalue{lv.addr, tt.Elem}
		case *ctype.Pointer:
			return lvalue{in.loadPointer(lv.addr), tt.Elem}
		}
		failf("minic: subscript of non-array %s", lv.t)
		return lvalue{}
	})
}

// loadPointer loads the pointer at addr, emitting the L event.
func (in *Interp) loadPointer(addr uint64) uint64 {
	p := in.Space.Mem.ReadUint(addr, 8)
	in.access(OpLoad, addr, ctype.PointerSize)
	return p
}

// dot compiles x.name, bound to the field's offset.
func (c *compiler) dot(n *Member) place {
	x, name := c.place(n.X), n.Name
	if st, ok := x.t.(*ctype.Struct); ok {
		if f, ok := st.FieldByName(name); ok {
			addr, off := x.addr, uint64(f.Offset)
			return staticPlace(f.Type, func(in *Interp) uint64 { return addr(in) + off })
		}
	}
	at := x.at
	return dynamicPlace(func(in *Interp) lvalue {
		lv := at(in)
		st, ok := lv.t.(*ctype.Struct)
		if !ok {
			failf("minic: . applied to non-struct %s", lv.t)
		}
		f, ok := st.FieldByName(name)
		if !ok {
			failf("minic: %s has no field %q", st, name)
		}
		return lvalue{lv.addr + uint64(f.Offset), f.Type}
	})
}

// arrow compiles p->name, bound to the field's offset.
func (c *compiler) arrow(n *Member) place {
	x := c.expr(n.X)
	ev, name := x.eval, n.Name
	if pt, ok := x.t.(*ctype.Pointer); ok {
		if st, ok := pt.Elem.(*ctype.Struct); ok {
			if f, ok := st.FieldByName(name); ok {
				off := uint64(f.Offset)
				return staticPlace(f.Type, func(in *Interp) uint64 { return uint64(ev(in).I) + off })
			}
		}
	}
	return dynamicPlace(func(in *Interp) lvalue {
		pv := ev(in)
		pt, ok := pv.T.(*ctype.Pointer)
		if !ok {
			failf("minic: -> applied to non-pointer %s", pv.T)
		}
		st, ok := pt.Elem.(*ctype.Struct)
		if !ok {
			failf("minic: -> applied to pointer to non-struct %s", pt.Elem)
		}
		f, ok := st.FieldByName(name)
		if !ok {
			failf("minic: %s has no field %q", st, name)
		}
		return lvalue{uint64(pv.Int()) + uint64(f.Offset), f.Type}
	})
}

// deref compiles *x.
func (c *compiler) deref(x Expr) place {
	v := c.expr(x)
	ev := v.eval
	if pt, ok := v.t.(*ctype.Pointer); ok {
		return staticPlace(pt.Elem, func(in *Interp) uint64 { return uint64(ev(in).I) })
	}
	return dynamicPlace(func(in *Interp) lvalue {
		pv := ev(in)
		pt, ok := pv.T.(*ctype.Pointer)
		if !ok {
			failf("minic: * applied to non-pointer %s", pv.T)
		}
		return lvalue{uint64(pv.Int()), pt.Elem}
	})
}

// load compiles the value of a place: an array decays to a pointer with no
// memory traffic, a scalar is loaded (an L event), a struct is an error.
func (c *compiler) load(p place) expr {
	addr := p.addr
	switch t := p.t.(type) {
	case *ctype.Array:
		pt := ctype.NewPointer(t.Elem)
		return expr{t: pt, eval: func(in *Interp) Value { return Value{T: pt, I: int64(addr(in))} }}
	case *ctype.Primitive:
		n, size := int(t.Bytes), t.Bytes
		switch {
		case t.Float:
			return floatExpr(t, func(in *Interp) float64 {
				a := addr(in)
				v := in.Space.Mem.ReadFloat(a, n)
				in.access(OpLoad, a, size)
				return v
			})
		case t.Signed:
			return intExpr(t, func(in *Interp) int64 {
				a := addr(in)
				v := in.Space.Mem.ReadInt(a, n)
				in.access(OpLoad, a, size)
				return v
			})
		}
		return intExpr(t, func(in *Interp) int64 {
			a := addr(in)
			v := int64(in.Space.Mem.ReadUint(a, n))
			in.access(OpLoad, a, size)
			return v
		})
	case *ctype.Pointer:
		return expr{t: t, eval: func(in *Interp) Value { return Value{T: t, I: int64(in.loadPointer(addr(in)))} }}
	}
	at := p.at
	return expr{eval: func(in *Interp) Value { return in.value(at(in)) }}
}

// value is load for a place whose type only the running program knows.
func (in *Interp) value(lv lvalue) Value {
	switch tt := lv.t.(type) {
	case *ctype.Array:
		return Value{T: ctype.NewPointer(tt.Elem), I: int64(lv.addr)}
	case *ctype.Struct:
		failf("minic: struct values are not supported (use members of %s)", tt)
	}
	v := in.readScalar(lv.addr, lv.t)
	in.access(OpLoad, lv.addr, lv.t.Size())
	return v
}

// typeOf compiles the static type of e without evaluating it (for
// sizeof).
func (c *compiler) typeOf(e Expr) func(*Interp) ctype.Type {
	static := func(t ctype.Type) func(*Interp) ctype.Type { return func(*Interp) ctype.Type { return t } }
	switch n := e.(type) {
	case *IntLit:
		return static(ctype.Int)
	case *FloatLit:
		return static(ctype.Double)
	case *Ident:
		p := c.ident(n.Name)
		if p.t != nil {
			return static(p.t)
		}
		at := p.at
		return func(in *Interp) ctype.Type { return at(in).t }
	case *Index:
		base := c.typeOf(n.X)
		return func(in *Interp) ctype.Type {
			switch tt := base(in).(type) {
			case *ctype.Array:
				return tt.Elem
			case *ctype.Pointer:
				return tt.Elem
			default:
				failf("minic: sizeof subscript of %s", tt)
			}
			return nil
		}
	case *Member:
		base, arrow, name := c.typeOf(n.X), n.Arrow, n.Name
		return func(in *Interp) ctype.Type {
			bt := base(in)
			if arrow {
				pt, ok := bt.(*ctype.Pointer)
				if !ok {
					failf("minic: -> on %s", bt)
				}
				bt = pt.Elem
			}
			st, ok := bt.(*ctype.Struct)
			if !ok {
				failf("minic: member of %s", bt)
			}
			f, ok := st.FieldByName(name)
			if !ok {
				failf("minic: %s has no field %q", st, name)
			}
			return f.Type
		}
	case *Cast:
		return static(n.Type)
	case *Unary:
		base := c.typeOf(n.X)
		if n.Op != "*" {
			return base
		}
		return func(in *Interp) ctype.Type {
			bt := base(in)
			pt, ok := bt.(*ctype.Pointer)
			if !ok {
				failf("minic: * on %s", bt)
			}
			return pt.Elem
		}
	}
	return static(ctype.Int)
}

// unary compiles a prefix or postfix unary operation.
func (c *compiler) unary(n *Unary) expr {
	switch n.Op {
	case "-":
		x := c.expr(n.X)
		if x.i != nil {
			xi := x.i
			return intExpr(x.t, func(in *Interp) int64 { return -xi(in) })
		}
		ev := x.eval
		return expr{t: x.t, eval: func(in *Interp) Value {
			v := ev(in)
			if isFloatType(v.T) {
				return Value{T: v.T, F: -v.F}
			}
			return Value{T: v.T, I: -v.I}
		}}
	case "!":
		x := c.truth(n.X)
		return intExpr(ctype.Int, func(in *Interp) int64 { return boolValue(!x(in)).I })
	case "~":
		x := c.expr(n.X)
		ev := x.eval
		return expr{t: x.t, eval: func(in *Interp) Value {
			v := ev(in)
			return Value{T: v.T, I: ^v.Int()}
		}}
	case "&":
		p := c.lvalue(n.X)
		if addr := p.addr; addr != nil {
			pt := ctype.NewPointer(elemOrSelf(p.t))
			return expr{t: pt, eval: func(in *Interp) Value { return Value{T: pt, I: int64(addr(in))} }}
		}
		at := p.at
		return expr{eval: func(in *Interp) Value {
			lv := at(in)
			return Value{T: ctype.NewPointer(elemOrSelf(lv.t)), I: int64(lv.addr)}
		}}
	case "*":
		return c.load(c.lvalue(n))
	case "++", "--":
		return c.incDec(n)
	}
	return failing(fmt.Errorf("minic: unhandled unary %q", n.Op))
}

// elemOrSelf is the type &x points to: an array's element (&arr ≈ arr for
// our addressing purposes), else x's own.
func elemOrSelf(t ctype.Type) ctype.Type {
	if at, ok := t.(*ctype.Array); ok {
		return at.Elem
	}
	return t
}

// incDec compiles ++ and --: a read-modify-write, one M event, as in the
// paper's loop increments ("M 7ff0001b8 4 main LV 0 1 i").
func (c *compiler) incDec(n *Unary) expr {
	p := c.lvalue(n.X)
	post := n.Postfix
	delta := int64(1)
	if n.Op == "--" {
		delta = -1
	}
	if pt, ok := p.t.(*ctype.Primitive); ok && !pt.Float {
		addr, sc := p.addr, scalarOf(pt)
		return intExpr(pt, func(in *Interp) int64 {
			a := addr(in)
			old := sc.read(in.Space.Mem, a).I
			nv := truncate(old+delta, pt)
			in.Space.Mem.WriteUint(a, int(pt.Bytes), uint64(nv))
			in.access(OpModify, a, pt.Bytes)
			if post {
				return old
			}
			return nv
		})
	}
	t, at := p.t, p.at
	if scalarOf(t) == nil {
		t = nil
	}
	return expr{t: t, eval: func(in *Interp) Value {
		lv := at(in)
		old := in.readScalar(lv.addr, lv.t)
		var nv Value
		switch {
		case isFloatType(lv.t):
			nv = Value{T: lv.t, F: old.F + float64(delta)}
		case isPointerType(lv.t):
			nv = Value{T: lv.t, I: old.I + delta*lv.t.(*ctype.Pointer).Elem.Size()}
		default:
			nv = Value{T: lv.t, I: old.I + delta}
		}
		cv, err := convert(nv, lv.t)
		if err != nil {
			fail(err)
		}
		in.writeScalar(lv.addr, lv.t, cv)
		in.access(OpModify, lv.addr, lv.t.Size())
		if post {
			return old
		}
		return cv
	}}
}

// binary compiles a binary operation; && and || short-circuit.
func (c *compiler) binary(n *Binary) expr {
	switch n.Op {
	case "&&":
		x, y := c.truth(n.X), c.truth(n.Y)
		return intExpr(ctype.Int, func(in *Interp) int64 { return boolValue(x(in) && y(in)).I })
	case "||":
		x, y := c.truth(n.X), c.truth(n.Y)
		return intExpr(ctype.Int, func(in *Interp) int64 { return boolValue(x(in) || y(in)).I })
	}
	o := binops[n.Op]
	if o == nil {
		return failing(fmt.Errorf("minic: unhandled binary %q", n.Op))
	}
	return c.binaryOf(o, c.expr(n.X), c.expr(n.Y))
}

// binaryOf compiles x o y. On operands of static arithmetic types the
// operation is bound to their types; otherwise (pointer arithmetic, or a
// type only the running program knows) apply chooses it per evaluation.
func (c *compiler) binaryOf(o *binop, x, y expr) expr {
	if isArith(x.t) && isArith(y.t) {
		switch {
		case o.cmp != nil:
			b := compare(o.op, x, y)
			return intExpr(ctype.Int, func(in *Interp) int64 { return boolValue(b(in)).I })
		case isFloatType(x.t) || isFloatType(y.t):
			if o.float != nil {
				return floatExpr(ctype.Double, arith(o.op, o.float, x.floats(), y.floats()))
			}
		default:
			return intExpr(ctype.Int, arith(o.op, o.int, x.ints(), y.ints()))
		}
	}
	xe, ye := x.eval, y.eval
	return expr{eval: func(in *Interp) Value {
		a := xe(in)
		return o.apply(a, ye(in))
	}}
}

// arith returns x op y computed by f, with the commonest operators
// written out.
func arith[T int64 | float64](op string, f func(a, b T) T, x, y func(*Interp) T) func(*Interp) T {
	switch op {
	case "+":
		return func(in *Interp) T { return x(in) + y(in) }
	case "-":
		return func(in *Interp) T { return x(in) - y(in) }
	case "*":
		return func(in *Interp) T { return x(in) * y(in) }
	}
	return func(in *Interp) T { return f(x(in), y(in)) }
}

// compare compiles the relational x op y on operands of static arithmetic
// types; as the C semantics here have it, integers compare as float64.
func compare(op string, x, y expr) func(*Interp) bool {
	if isIntType(x.t) && isIntType(y.t) {
		return compareOf(op, x.ints(), y.ints())
	}
	return compareOf(op, x.floats(), y.floats())
}

func compareOf[T int64 | float64](op string, x, y func(*Interp) T) func(*Interp) bool {
	switch op {
	case "==":
		return func(in *Interp) bool { return float64(x(in)) == float64(y(in)) }
	case "!=":
		return func(in *Interp) bool { return float64(x(in)) != float64(y(in)) }
	case "<":
		return func(in *Interp) bool { return float64(x(in)) < float64(y(in)) }
	case ">":
		return func(in *Interp) bool { return float64(x(in)) > float64(y(in)) }
	case "<=":
		return func(in *Interp) bool { return float64(x(in)) <= float64(y(in)) }
	}
	return func(in *Interp) bool { return float64(x(in)) >= float64(y(in)) }
}

// assign compiles simple and compound assignment. The evaluation order
// matches the paper's traces: the right-hand side is evaluated first (its
// loads appear first), then the target address is computed (subscript
// loads), then the store (or modify, for compound ops) is emitted. A simple
// assignment's value is the right-hand side's, unconverted.
func (c *compiler) assign(n *Assign) expr {
	rhs, p := c.expr(n.RHS), c.lvalue(n.LHS)
	sc := scalarOf(p.t)
	if n.Op != "=" {
		return c.modify(binops[n.Op[:len(n.Op)-1]], p, sc, rhs)
	}
	addr, re := p.addr, rhs.eval
	switch {
	case sc == nil:
		at := p.at
		return expr{t: rhs.t, eval: func(in *Interp) Value {
			v := re(in)
			in.storeTo(at(in), v)
			return v
		}}
	case isArith(p.t) && isFloatType(rhs.t):
		rf, store := rhs.floats(), storeFloat(p.t)
		return floatExpr(rhs.t, func(in *Interp) float64 {
			v := rf(in)
			store(in, addr(in), v)
			return v
		})
	case isArith(p.t) && isIntType(rhs.t):
		ri, store := rhs.ints(), storeInt(p.t)
		return intExpr(rhs.t, func(in *Interp) int64 {
			v := ri(in)
			store(in, addr(in), v)
			return v
		})
	}
	return expr{t: rhs.t, eval: func(in *Interp) Value {
		v := re(in)
		in.store(sc, addr(in), v)
		return v
	}}
}

// modify compiles a compound assignment: read-modify-write, one M event.
func (c *compiler) modify(o *binop, p place, sc *scalar, rhs expr) expr {
	re := rhs.eval
	if sc == nil {
		at := p.at
		return expr{eval: func(in *Interp) Value {
			v := re(in)
			lv := at(in)
			cv, err := convert(o.apply(in.readScalar(lv.addr, lv.t), v), lv.t)
			if err != nil {
				fail(err)
			}
			in.writeScalar(lv.addr, lv.t, cv)
			in.access(OpModify, lv.addr, lv.t.Size())
			return cv
		}}
	}
	addr := p.addr
	if pt, ok := p.t.(*ctype.Primitive); ok && !pt.Float && isIntType(rhs.t) {
		ri, f, n := rhs.ints(), o.int, int(pt.Bytes)
		return intExpr(pt, func(in *Interp) int64 {
			v := ri(in)
			a := addr(in)
			nv := truncate(f(sc.read(in.Space.Mem, a).I, v), pt)
			in.Space.Mem.WriteUint(a, n, uint64(nv))
			in.access(OpModify, a, pt.Bytes)
			return nv
		})
	}
	return expr{t: sc.t, eval: func(in *Interp) Value {
		v := re(in)
		a := addr(in)
		cv := sc.conv(o.apply(sc.read(in.Space.Mem, a), v))
		sc.write(in.Space.Mem, a, cv)
		in.access(OpModify, a, sc.size)
		return cv
	}}
}

// storeFloat returns the store of a float64 value to a place of
// arithmetic type t, converted as C converts it, with its S event.
func storeFloat(t ctype.Type) func(in *Interp, addr uint64, v float64) {
	p := t.(*ctype.Primitive)
	n := int(p.Bytes)
	if p.Float {
		return func(in *Interp, addr uint64, v float64) {
			in.Space.Mem.WriteFloat(addr, n, v)
			in.access(OpStore, addr, p.Bytes)
		}
	}
	return func(in *Interp, addr uint64, v float64) {
		in.Space.Mem.WriteUint(addr, n, uint64(truncate(int64(v), p)))
		in.access(OpStore, addr, p.Bytes)
	}
}

// storeInt is storeFloat for an int64 value.
func storeInt(t ctype.Type) func(in *Interp, addr uint64, v int64) {
	p := t.(*ctype.Primitive)
	n := int(p.Bytes)
	if p.Float {
		return func(in *Interp, addr uint64, v int64) {
			in.Space.Mem.WriteFloat(addr, n, float64(v))
			in.access(OpStore, addr, p.Bytes)
		}
	}
	return func(in *Interp, addr uint64, v int64) {
		in.Space.Mem.WriteUint(addr, n, uint64(truncate(v, p)))
		in.access(OpStore, addr, p.Bytes)
	}
}

// call compiles a call of a builtin or user function. Arguments are
// evaluated in the caller (emitting their loads) before the call protocol
// runs.
func (c *compiler) call(n *Call) expr {
	switch n.Name {
	case "malloc", "calloc":
		return c.malloc(n)
	case "free":
		if len(n.Args) != 1 {
			return failing(fmt.Errorf("minic: free takes one argument"))
		}
		x := c.expr(n.Args[0]).eval
		return intExpr(ctype.Int, func(in *Interp) int64 {
			pv := x(in)
			if !in.Syms.RemoveHeap(uint64(pv.Int())) {
				failf("minic: free of unallocated pointer %#x", pv.Int())
			}
			return 0
		})
	}
	fn, ok := c.funcs[n.Name]
	if !ok {
		return failing(fmt.Errorf("minic: line %d: call to undefined function %q", n.Line, n.Name))
	}
	args := make([]evalFn, len(n.Args))
	for i, a := range n.Args {
		args[i] = c.expr(a).eval
	}
	return expr{eval: func(in *Interp) Value {
		start := len(in.args)
		for _, a := range args {
			v := a(in)
			in.args = append(in.args, v)
		}
		v := in.call(fn, in.args[start:])
		in.args = in.args[:start]
		return v
	}}
}

// malloc compiles malloc and calloc: a heap block, registered as a char
// array until a typed pointer first takes it (see retype).
func (c *compiler) malloc(n *Call) expr {
	var size func(*Interp) int64
	switch {
	case n.Name == "malloc" && len(n.Args) == 1:
		x := c.expr(n.Args[0]).eval
		size = func(in *Interp) int64 { return x(in).Int() }
	case n.Name == "calloc" && len(n.Args) == 2:
		x, y := c.expr(n.Args[0]).eval, c.expr(n.Args[1]).eval
		size = func(in *Interp) int64 {
			a := x(in)
			return a.Int() * y(in).Int()
		}
	default:
		return failing(fmt.Errorf("minic: bad %s arity", n.Name))
	}
	name := n.Name
	return expr{t: charPtr, eval: func(in *Interp) Value {
		sz := size(in)
		if sz <= 0 {
			failf("minic: %s of non-positive size %d", name, sz)
		}
		addr, err := in.Space.Heap.Alloc(sz, 16)
		if err != nil {
			fail(err)
		}
		in.heapSeq++
		fn := in.curFn()
		sym, err := in.Syms.AddHeap(fmt.Sprintf("heap_%s_%d", fn, in.heapSeq), addr, ctype.NewArray(ctype.Char, sz), fn)
		if err != nil {
			fail(err)
		}
		return Value{T: charPtr, I: int64(addr), heapSym: sym}
	}}
}
