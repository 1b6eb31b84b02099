package minic

import (
	"fmt"
	"sort"

	"tracedst/internal/ctype"
)

// A Program is compiled once, by Parse, into Go closures over resolved
// operands: an identifier is bound to its global or to its declaration's
// binding slot, a member to its field offset, a subscript to its element
// size, an operator to its typed operation, and each expression carries
// the static C type of its value. What the compiler cannot decide — a
// name that is undefined, a member of a non-struct, a call's result type
// — is decided, or reported, when the code runs, with the message and at
// the point the C semantics put it. The compiled code holds no run state,
// so one Program runs in several Interps at once.
type compiled struct {
	// funcs holds every function by index; main is the entry point.
	funcs []*function
	main  *function
}

// function is one compiled function.
type function struct {
	decl  *FuncDecl
	index int
	// slots counts the function's binding slots: its parameters first,
	// then one per declaration in its body.
	slots int
	body  stmtFn
}

// ctrl is how a statement ends.
type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

// stmtFn executes one compiled statement.
type stmtFn func(in *Interp) ctrl

// compiler carries what compiling one function needs: the names its code
// can see and the scopes they are declared in.
type compiler struct {
	prog    *Program
	funcs   map[string]*function
	globals map[string]int // index in prog.Globals; the last of a name wins
	fn      *function
	// binds holds the declarations visible at the point being compiled,
	// in declaration order, and scopes the open block scopes.
	binds  []binding
	scopes []scope
	// nested is set while compiling the parts of an lvalue computation
	// (see Interp: its loads are deduplicated).
	nested bool
}

// binding is one declared local. A conditional binding is one whose
// declaration may not have executed when code that sees it runs — one in
// a branch, a loop body or a switch arm rather than in a block's own list
// — so that code falls back to the binding declared before it.
type binding struct {
	name string
	slot int
	t    ctype.Type
	cond bool
}

// scope is one open block scope: where its bindings start in binds, and
// the slots of its conditional ones, unbound again when it exits.
type scope struct {
	start int
	cond  []int
}

// compile compiles prog.
func compile(prog *Program) *compiled {
	c := &compiler{prog: prog, funcs: map[string]*function{}, globals: map[string]int{}}
	for i, g := range prog.Globals {
		c.globals[g.Name] = i
	}
	names := make([]string, 0, len(prog.Funcs))
	for name := range prog.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	code := &compiled{}
	for i, name := range names {
		fn := &function{decl: prog.Funcs[name], index: i}
		c.funcs[name] = fn
		code.funcs = append(code.funcs, fn)
	}
	for _, fn := range code.funcs {
		c.function(fn)
	}
	code.main = c.funcs["main"]
	return code
}

// function compiles fn: its parameters bind slots 0 to n-1 in the scope a
// call opens, and its body is a block in that scope.
func (c *compiler) function(fn *function) {
	c.fn, c.binds, c.scopes, c.nested = fn, c.binds[:0], c.scopes[:0], false
	c.open()
	for _, prm := range fn.decl.Params {
		c.declare(prm.Name, prm.Type, false)
	}
	fn.body = c.block(fn.decl.Body)
}

func (c *compiler) open() { c.scopes = append(c.scopes, scope{start: len(c.binds)}) }

// close ends the innermost scope and wraps run, its compiled code, in the
// run-time side of the scope: the frame mark taken at entry and released at
// exit, so a loop that declares its locals again reuses their stack slots,
// and the unbinding of its conditional declarations. A scope that declares
// nothing needs neither.
func (c *compiler) close(run stmtFn) stmtFn {
	sc := c.scopes[len(c.scopes)-1]
	c.scopes = c.scopes[:len(c.scopes)-1]
	declares := len(c.binds) > sc.start
	c.binds = c.binds[:sc.start]
	if !declares {
		return run
	}
	cond := sc.cond
	return func(in *Interp) ctrl {
		mark := in.frame.Mark()
		r := run(in)
		in.frame.Release(mark)
		for _, s := range cond {
			in.locals[in.base+s] = 0
		}
		return r
	}
}

// declare binds name to a new slot of the function in the innermost scope.
func (c *compiler) declare(name string, t ctype.Type, cond bool) int {
	slot := c.fn.slots
	c.fn.slots++
	c.binds = append(c.binds, binding{name: name, slot: slot, t: t, cond: cond})
	if cond {
		sc := &c.scopes[len(c.scopes)-1]
		sc.cond = append(sc.cond, slot)
	}
	return slot
}

// ident compiles a reference to name: to the innermost declaration of it
// that has executed in the open scopes, else to the global of that name.
func (c *compiler) ident(name string) place {
	var conds []binding
	var p place
	for i := len(c.binds) - 1; i >= 0 && p.at == nil; i-- {
		b := c.binds[i]
		switch {
		case b.name != name:
		case b.cond:
			conds = append(conds, b)
		default:
			slot := b.slot
			p = staticPlace(b.t, func(in *Interp) uint64 { return in.locals[in.base+slot] })
		}
	}
	if p.at == nil {
		if g, ok := c.globals[name]; ok {
			p = staticPlace(c.prog.Globals[g].Type, func(in *Interp) uint64 { return in.globals[g] })
		} else {
			p = dynamicPlace(func(in *Interp) lvalue {
				failf("minic: undefined variable %q in %s", name, in.curFn())
				return lvalue{}
			})
		}
	}
	if len(conds) == 0 {
		return p
	}
	outer := p.at
	bound := func(in *Interp) lvalue {
		for _, b := range conds {
			if a := in.locals[in.base+b.slot]; a != 0 {
				return lvalue{a, b.t}
			}
		}
		return outer(in)
	}
	for _, b := range conds {
		if b.t != p.t {
			return dynamicPlace(bound)
		}
	}
	return staticPlace(p.t, func(in *Interp) uint64 { return bound(in).addr })
}

// block compiles b's statements in a scope of their own. It takes no
// step: a function body is not a statement, a block statement steps
// first.
func (c *compiler) block(b *Block) stmtFn {
	c.open()
	stmts := make([]stmtFn, len(b.Stmts))
	for i, s := range b.Stmts {
		stmts[i] = c.stmt(s, true)
	}
	return c.close(func(in *Interp) ctrl {
		for _, s := range stmts {
			if r := s(in); r != ctrlNone {
				return r
			}
		}
		return ctrlNone
	})
}

// stmt compiles s. direct says s is in the innermost scope's own
// statement list, so a declaration it makes is not conditional.
func (c *compiler) stmt(s Stmt, direct bool) stmtFn {
	switch n := s.(type) {
	case *Block:
		body := c.block(n)
		return func(in *Interp) ctrl {
			in.step()
			return body(in)
		}
	case *DeclStmt:
		decls := make([]func(*Interp), len(n.Decls))
		for i, d := range n.Decls {
			decls[i] = c.decl(d, !direct)
		}
		return func(in *Interp) ctrl {
			in.step()
			for _, d := range decls {
				d(in)
			}
			return ctrlNone
		}
	case *ExprStmt:
		x := c.expr(n.X).effect()
		return func(in *Interp) ctrl {
			in.step()
			x(in)
			return ctrlNone
		}
	case *Gleipnir:
		return c.gleipnir(n.On)
	case *Return:
		if n.X == nil {
			return func(in *Interp) ctrl {
				in.step()
				in.ret = Value{}
				return ctrlReturn
			}
		}
		x := c.expr(n.X).eval
		return func(in *Interp) ctrl {
			in.step()
			in.ret = x(in)
			return ctrlReturn
		}
	case *Break:
		return func(in *Interp) ctrl {
			in.step()
			return ctrlBreak
		}
	case *Continue:
		return func(in *Interp) ctrl {
			in.step()
			return ctrlContinue
		}
	case *If:
		cond, then := c.truth(n.Cond), c.stmt(n.Then, false)
		if n.Else == nil {
			return func(in *Interp) ctrl {
				in.step()
				if cond(in) {
					return then(in)
				}
				return ctrlNone
			}
		}
		els := c.stmt(n.Else, false)
		return func(in *Interp) ctrl {
			in.step()
			if cond(in) {
				return then(in)
			}
			return els(in)
		}
	case *Switch:
		return c.switchStmt(n)
	case *While:
		cond, body := c.truth(n.Cond), c.stmt(n.Body, false)
		return func(in *Interp) ctrl {
			in.step()
			for {
				in.step()
				if !cond(in) {
					return ctrlNone
				}
				switch body(in) {
				case ctrlBreak:
					return ctrlNone
				case ctrlReturn:
					return ctrlReturn
				}
			}
		}
	case *DoWhile:
		body, cond := c.stmt(n.Body, false), c.truth(n.Cond)
		return func(in *Interp) ctrl {
			in.step()
			for {
				in.step()
				switch body(in) {
				case ctrlBreak:
					return ctrlNone
				case ctrlReturn:
					return ctrlReturn
				}
				if !cond(in) {
					return ctrlNone
				}
			}
		}
	case *For:
		return c.forStmt(n)
	}
	err := fmt.Errorf("minic: unhandled statement %T", s)
	return func(in *Interp) ctrl {
		in.step()
		fail(err)
		return ctrlNone
	}
}

// forStmt compiles a for loop, whose clauses share one scope.
func (c *compiler) forStmt(n *For) stmtFn {
	c.open()
	var init stmtFn
	var cond func(*Interp) bool
	var post func(*Interp)
	if n.Init != nil {
		init = c.stmt(n.Init, true)
	}
	if n.Cond != nil {
		cond = c.truth(n.Cond)
	}
	body := c.stmt(n.Body, false)
	if n.Post != nil {
		post = c.expr(n.Post).effect()
	}
	loop := c.close(func(in *Interp) ctrl {
		if init != nil {
			if r := init(in); r != ctrlNone {
				return r
			}
		}
		for {
			in.step()
			if cond != nil && !cond(in) {
				return ctrlNone
			}
			switch body(in) {
			case ctrlReturn:
				return ctrlReturn
			case ctrlBreak:
				return ctrlNone
			}
			if post != nil {
				post(in)
			}
		}
	})
	return func(in *Interp) ctrl {
		in.step()
		return loop(in)
	}
}

// switchStmt compiles a switch: execution enters at the first arm listing
// the value, else at the default arm, and falls through the arms after it
// until a break. The arms' statements are in the enclosing scope.
func (c *compiler) switchStmt(n *Switch) stmtFn {
	cond := c.expr(n.Cond).eval
	arms := make([][]stmtFn, len(n.Cases))
	entry := map[int64]int{}
	def := -1
	for i, cs := range n.Cases {
		for _, s := range cs.Body {
			arms[i] = append(arms[i], c.stmt(s, false))
		}
		for _, v := range cs.Vals {
			if _, ok := entry[v]; !ok {
				entry[v] = i
			}
		}
		if cs.Default && def < 0 {
			def = i
		}
	}
	return func(in *Interp) ctrl {
		in.step()
		start, ok := entry[cond(in).Int()]
		if !ok {
			start = def
		}
		if start < 0 {
			return ctrlNone
		}
		for _, arm := range arms[start:] {
			for _, s := range arm {
				switch r := s(in); r {
				case ctrlBreak:
					return ctrlNone
				case ctrlReturn, ctrlContinue:
					return r
				}
			}
		}
		return ctrlNone
	}
}

// decl compiles one local declaration: it allocates and registers the
// local, binds its slot, then initialises it. The name is bound before
// the initialiser is compiled, which therefore sees it, as in C.
func (c *compiler) decl(d VarDecl, cond bool) func(*Interp) {
	slot := c.declare(d.Name, d.Type, cond)
	name, t := d.Name, d.Type
	bind := func(in *Interp) uint64 {
		addr := in.alloc(name, t)
		in.locals[in.base+slot] = addr
		return addr
	}
	switch {
	case d.Init != nil:
		x, store := c.expr(d.Init).eval, storer(t)
		return func(in *Interp) {
			addr := bind(in)
			store(in, addr, x(in))
		}
	case d.InitList != nil:
		// Element-wise stores, as the compiled initialisation performs.
		arr := t.(*ctype.Array)
		xs := make([]evalFn, len(d.InitList))
		for i, e := range d.InitList {
			xs[i] = c.expr(e).eval
		}
		esz, store := arr.Elem.Size(), storer(arr.Elem)
		return func(in *Interp) {
			addr := bind(in)
			for i, x := range xs {
				store(in, addr+uint64(int64(i)*esz), x(in))
			}
		}
	}
	return func(in *Interp) { bind(in) }
}

// gleipnir compiles an instrumentation marker. START enables tracing and
// then, like the real Valgrind client request, touches the hidden
// _zzq_result slot (a symbolised store followed by an unannotated load —
// paper listing 2 lines 2-3). The slot is allocated, in the scope of the
// START that first executes in the function, once per run.
func (c *compiler) gleipnir(on bool) stmtFn {
	if !on {
		return func(in *Interp) ctrl {
			in.step()
			in.lis.Instrument(false)
			return ctrlNone
		}
	}
	slot := c.declare("_zzq_result", ctype.ULong, true)
	fn := c.fn.index
	return func(in *Interp) ctrl {
		in.step()
		in.lis.Instrument(true)
		addr := in.zzq[fn]
		if addr == 0 {
			addr = in.alloc("_zzq_result", ctype.ULong)
			in.locals[in.base+slot] = addr
			in.zzq[fn] = addr
		}
		in.access(OpStore, addr, 8)
		// The readback is performed by glue code with no debug info; the
		// tracer will find the _zzq_result symbol, but Gleipnir prints it
		// bare. We emit it as a plain load; annotation is the tracer's call.
		in.access(OpLoad, addr, 8)
		return ctrlNone
	}
}

// storer returns the store of a value to a place of type t: converted,
// written, and reported as an S event.
func storer(t ctype.Type) func(in *Interp, addr uint64, v Value) {
	if sc := scalarOf(t); sc != nil {
		return func(in *Interp, addr uint64, v Value) { in.store(sc, addr, v) }
	}
	return func(in *Interp, addr uint64, v Value) { in.storeTo(lvalue{addr, t}, v) }
}
