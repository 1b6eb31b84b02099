package minic

import (
	"context"
	"errors"
	"fmt"

	"tracedst/internal/ctype"
	"tracedst/internal/memmodel"
	"tracedst/internal/symtab"
)

// AccessOp is the kind of memory event the interpreter reports: 'L' load,
// 'S' store, 'M' read-modify-write (matching Gleipnir's codes).
type AccessOp byte

// Access operations.
const (
	OpLoad   AccessOp = 'L'
	OpStore  AccessOp = 'S'
	OpModify AccessOp = 'M'
)

// Listener observes the interpreter's memory behaviour. fn is the function
// executing the access and depth its 0-based call depth — together with the
// interpreter's symbol table this is everything Gleipnir's trace line needs.
type Listener interface {
	Access(op AccessOp, addr uint64, size int64, fn string, depth int)
	// Instrument reports GLEIPNIR_START/STOP_INSTRUMENTATION markers.
	Instrument(on bool)
}

// nopListener discards all events.
type nopListener struct{}

func (nopListener) Access(AccessOp, uint64, int64, string, int) {}
func (nopListener) Instrument(bool)                             {}

// DefaultStepLimit bounds the number of executed statements to keep runaway
// programs from hanging the simulator.
const DefaultStepLimit = 100_000_000

// ErrBudgetExceeded is the sentinel matched by errors.Is when a program
// runs past its step budget. The concrete error is a *BudgetError carrying
// the limit.
var ErrBudgetExceeded = errors.New("step budget exceeded")

// BudgetError reports a program that executed more statements than its
// budget allows — the typed form of "this workload is runaway", so batch
// runners can report it and keep going instead of hanging.
type BudgetError struct {
	// Limit is the step budget that was exhausted.
	Limit int64
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("minic: step budget %d exceeded (infinite loop?)", e.Limit)
}

// Is matches ErrBudgetExceeded.
func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExceeded }

// ctxCheckMask sets how often the interpreter polls its context: every
// (mask+1) steps, cheap enough to hide in the statement dispatch cost.
const ctxCheckMask = 1023

// runError carries a run-time error from the compiled code that detects it
// up to Run, which returns it: compiled code raises an error with fail and
// returns no error values of its own.
type runError struct{ err error }

func fail(err error) { panic(runError{err}) }

func failf(format string, args ...any) { fail(fmt.Errorf(format, args...)) }

// Interp executes a parsed Program against a fresh address space, reporting
// every data access to the Listener. Within one outermost lvalue
// computation, a repeated load of an address is reported once, mirroring
// the register reuse visible in the paper's traces (one load of i for
// glStructArray[i].myArray[i]). Compiled code reuses a register only
// within one address computation, and a call starts its own, so a call
// ends that scope: a callee's loads are deduplicated only within its own
// lvalue computations.
//
// The program runs as the code Parse compiled it to (see compile.go); the
// Interp holds the state of one run.
type Interp struct {
	prog  *Program
	Space *memmodel.AddressSpace
	Syms  *symtab.Table

	lis       Listener
	StepLimit int64
	steps     int64
	ctx       context.Context

	fnStack []string
	// loaded holds the addresses loaded by the lvalue computations in
	// progress, one segment per call level. The running call's segment
	// starts at loadedFrom, -1 while it computes no lvalue. A load already
	// in the segment emits no event (see Interp).
	loaded     []uint64
	loadedFrom int

	heapSeq int
	// zzq holds each function's hidden _zzq_result slot, used by the
	// GLEIPNIR macros, by function index; 0 until its first START.
	zzq []uint64
	// globals holds each global's address, in declaration order.
	globals []uint64

	// frame is the running call's stack frame and locals the binding slots
	// of the calls in progress: the running call's start at base, one per
	// declaration of its function, each the address of the local it last
	// bound (0 while unbound).
	frame  *memmodel.Frame
	locals []uint64
	base   int
	// args stacks the argument values of the calls being set up, and ret
	// holds the value of the return statement last executed.
	args []Value
	ret  Value
}

// NewInterp returns an interpreter for prog reporting to lis (which may be
// nil to discard events).
func NewInterp(prog *Program, lis Listener) *Interp {
	if lis == nil {
		lis = nopListener{}
	}
	return &Interp{
		prog:       prog,
		Space:      memmodel.NewAddressSpace(),
		Syms:       symtab.New(),
		lis:        lis,
		StepLimit:  DefaultStepLimit,
		loadedFrom: -1,
		zzq:        make([]uint64, len(prog.code.funcs)),
		globals:    make([]uint64, len(prog.Globals)),
	}
}

// Run lays out the globals and executes main. The returned value is main's
// return value (0 if main returns void or falls off the end).
func (in *Interp) Run() (ret int64, err error) {
	for i, g := range in.prog.Globals {
		addr, err := in.Space.Data.Alloc(g.Type.Size(), g.Type.Align())
		if err != nil {
			return 0, err
		}
		if _, err := in.Syms.AddGlobal(g.Name, addr, g.Type); err != nil {
			return 0, err
		}
		in.globals[i] = addr
		if g.Init != nil {
			// Static initialisation happens before execution: no events.
			n, err := constEval(g.Init)
			if err != nil {
				return 0, fmt.Errorf("minic: global %s: non-constant initialiser: %v", g.Name, err)
			}
			in.writeScalar(addr, g.Type, Value{T: ctype.Long, I: n})
		}
		if g.InitList != nil {
			arr := g.Type.(*ctype.Array)
			for i, e := range g.InitList {
				n, err := constEval(e)
				if err != nil {
					return 0, fmt.Errorf("minic: global %s[%d]: non-constant initialiser: %v", g.Name, i, err)
				}
				in.writeScalar(addr+uint64(int64(i)*arr.Elem.Size()), arr.Elem, Value{T: ctype.Long, I: n})
			}
		}
	}
	defer func() {
		if r := recover(); r != nil {
			re, ok := r.(runError)
			if !ok {
				panic(r)
			}
			err = re.err
		}
	}()
	mainFn := in.prog.code.main
	// Synthesize argc = 0, argv = NULL (and zero values for any further
	// parameters) for the standard main signatures.
	for _, prm := range mainFn.decl.Params {
		in.args = append(in.args, Value{T: prm.Type})
	}
	return in.call(mainFn, in.args).Int(), nil
}

// Steps returns the number of statements executed.
func (in *Interp) Steps() int64 { return in.steps }

// SetContext attaches a cancellation context to the interpreter: the step
// loop polls it every few hundred statements, so a deadline or SIGINT
// interrupts even a program that never terminates on its own. A nil ctx
// clears the check.
func (in *Interp) SetContext(ctx context.Context) { in.ctx = ctx }

func (in *Interp) curFn() string {
	if len(in.fnStack) == 0 {
		return "_start"
	}
	return in.fnStack[len(in.fnStack)-1]
}

func (in *Interp) depth() int { return len(in.fnStack) - 1 }

// access emits a memory event, honouring lvalue-computation deduplication
// for loads.
func (in *Interp) access(op AccessOp, addr uint64, size int64) {
	if op == OpLoad && in.loadedFrom >= 0 {
		for _, a := range in.loaded[in.loadedFrom:] {
			if a == addr {
				return
			}
		}
		in.loaded = append(in.loaded, addr)
	}
	in.lis.Access(op, addr, size, in.curFn(), in.depth())
}

// step counts one executed statement against the budget, polling the
// context every ctxCheckMask+1 steps.
func (in *Interp) step() {
	in.steps++
	if in.steps > in.StepLimit || in.ctx != nil && in.steps&ctxCheckMask == 0 {
		in.checkStep()
	}
}

func (in *Interp) checkStep() {
	if in.steps > in.StepLimit {
		fail(&BudgetError{Limit: in.StepLimit})
	}
	if err := in.ctx.Err(); err != nil {
		failf("minic: interrupted after %d steps: %w", in.steps, err)
	}
}

// alloc reserves a local of type t in the running call's frame and
// registers its symbol.
func (in *Interp) alloc(name string, t ctype.Type) uint64 {
	addr, err := in.frame.Alloc(t.Size(), t.Align())
	if err != nil {
		fail(err)
	}
	if _, err := in.Syms.AddLocal(name, addr, t); err != nil {
		fail(err)
	}
	return addr
}

// call invokes fn with already-evaluated argument values, emitting the call
// protocol the paper's traces show: a return-address push attributed to the
// caller, a frame-pointer save attributed to the callee, then one store per
// parameter.
func (in *Interp) call(fn *function, args []Value) Value {
	fd := fn.decl
	if len(args) != len(fd.Params) {
		failf("minic: %s called with %d args, want %d", fd.Name, len(args), len(fd.Params))
	}
	// The callee starts with no lvalue computation in progress; the
	// caller's resumes when it returns.
	loaded, loadedFrom := len(in.loaded), in.loadedFrom
	in.loadedFrom = -1

	frame := in.Space.Stack.Push(fd.Name)
	if len(in.fnStack) > 0 {
		// Return-address push, attributed to the caller (paper listing 2
		// line 18: "S 7ff000050 8 main").
		ra, err := frame.Alloc(8, 8)
		if err != nil {
			fail(err)
		}
		in.access(OpStore, ra, 8)
	}

	in.fnStack = append(in.fnStack, fd.Name)
	in.Syms.PushFrame(fd.Name)
	callerFrame, callerBase := in.frame, in.base
	in.frame, in.base = frame, len(in.locals)
	in.locals = append(in.locals, make([]uint64, fn.slots)...)

	if len(in.fnStack) > 1 {
		// Saved frame pointer, attributed to the callee (line 19:
		// "S 7ff000048 8 foo").
		bp, err := frame.Alloc(8, 8)
		if err != nil {
			fail(err)
		}
		in.access(OpStore, bp, 8)
	}

	for i, prm := range fd.Params {
		addr := in.alloc(prm.Name, prm.Type)
		in.locals[in.base+i] = addr
		v, err := convert(args[i], prm.Type)
		if err != nil {
			fail(err)
		}
		in.writeScalar(addr, prm.Type, v)
		in.access(OpStore, addr, prm.Type.Size())
	}

	c := fn.body(in)
	in.Syms.PopFrame()
	in.Space.Stack.Pop()
	in.fnStack = in.fnStack[:len(in.fnStack)-1]
	in.locals = in.locals[:in.base]
	in.frame, in.base = callerFrame, callerBase
	in.loaded, in.loadedFrom = in.loaded[:loaded], loadedFrom
	if c == ctrlReturn {
		return in.ret
	}
	return IntValue(0)
}
