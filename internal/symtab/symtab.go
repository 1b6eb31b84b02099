// Package symtab is the debug-information side of the tracer: it records
// where every live program variable sits in the simulated address space and
// answers the reverse question Valgrind's debug parser answers for Gleipnir
// — "which variable, and which element of it, does raw address X belong
// to?". The answer is rendered as an access expression such as
// glStructArray[0].myArray[0].
package symtab

import (
	"fmt"
	"sort"

	"tracedst/internal/ctype"
)

// Kind classifies a symbol's storage.
type Kind int

// Symbol kinds.
const (
	KindGlobal Kind = iota // data segment
	KindLocal              // stack frame
	KindHeap               // malloc'd block
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindGlobal:
		return "global"
	case KindLocal:
		return "local"
	case KindHeap:
		return "heap"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Symbol is one live program variable (or heap block).
type Symbol struct {
	Name string
	Addr uint64
	Type ctype.Type
	Kind Kind
	// Func is the function that declared the symbol (locals) or performed
	// the allocation (heap blocks).
	Func string
	// Depth is the 0-based call depth of the owning frame (locals only).
	Depth int
}

// Size returns the symbol's extent in bytes.
func (s *Symbol) Size() int64 { return s.Type.Size() }

// Contains reports whether addr falls inside the symbol.
func (s *Symbol) Contains(addr uint64) bool {
	return addr >= s.Addr && addr < s.Addr+uint64(s.Size())
}

// scope is a sorted set of non-overlapping symbols.
type scope struct {
	syms []*Symbol // sorted by Addr
}

func (sc *scope) insert(s *Symbol) error {
	i := sort.Search(len(sc.syms), func(i int) bool { return sc.syms[i].Addr >= s.Addr })
	if i < len(sc.syms) && s.Addr+uint64(s.Size()) > sc.syms[i].Addr && s.Size() > 0 {
		return fmt.Errorf("symtab: %s overlaps %s", s.Name, sc.syms[i].Name)
	}
	if i > 0 && sc.syms[i-1].Addr+uint64(sc.syms[i-1].Size()) > s.Addr {
		return fmt.Errorf("symtab: %s overlaps %s", s.Name, sc.syms[i-1].Name)
	}
	sc.syms = append(sc.syms, nil)
	copy(sc.syms[i+1:], sc.syms[i:])
	sc.syms[i] = s
	return nil
}

// insertReplacing inserts s, evicting any overlapped symbols first — used
// for stack frames, where block-scope exit lets later locals reuse the
// addresses of dead ones (the debug info then describes the innermost live
// variable, as a real debugger's lexical-scope tables do).
func (sc *scope) insertReplacing(s *Symbol) {
	end := s.Addr + uint64(s.Size())
	kept := sc.syms[:0]
	for _, old := range sc.syms {
		if old.Addr < end && old.Addr+uint64(old.Size()) > s.Addr && s.Size() > 0 {
			continue // overlapped: the old local is dead
		}
		kept = append(kept, old)
	}
	sc.syms = kept
	i := sort.Search(len(sc.syms), func(i int) bool { return sc.syms[i].Addr >= s.Addr })
	sc.syms = append(sc.syms, nil)
	copy(sc.syms[i+1:], sc.syms[i:])
	sc.syms[i] = s
}

func (sc *scope) lookup(addr uint64) (*Symbol, bool) {
	i := sort.Search(len(sc.syms), func(i int) bool { return sc.syms[i].Addr > addr })
	if i == 0 {
		return nil, false
	}
	s := sc.syms[i-1]
	if s.Contains(addr) {
		return s, true
	}
	return nil, false
}

func (sc *scope) remove(addr uint64) bool {
	i := sort.Search(len(sc.syms), func(i int) bool { return sc.syms[i].Addr >= addr })
	if i < len(sc.syms) && sc.syms[i].Addr == addr {
		sc.syms = append(sc.syms[:i], sc.syms[i+1:]...)
		return true
	}
	return false
}

// frameScope holds the locals of one live stack frame.
type frameScope struct {
	fn    string
	depth int
	scope
}

// Table is the full symbol table: globals, heap blocks, and a stack of
// frame scopes mirroring the call stack.
type Table struct {
	globals scope
	heap    scope
	frames  []*frameScope
	// paths memoizes the access paths Describe computed, one entry per
	// slot (see pathFor); allocated on first use.
	paths []pathMemo
}

// pathMemo is one access path Describe computed: the path of byte off
// within type t.
type pathMemo struct {
	t    ctype.Type
	off  int64
	path ctype.Path
}

// pathMemoSlots is the number of memoized paths, a power of two. Slots are
// chosen by address, so an array of up to this many 4-byte elements, or
// half as many 8-byte ones, keeps all of its paths.
const pathMemoSlots = 1 << 12

// New returns an empty table.
func New() *Table { return &Table{} }

// AddGlobal registers a data-segment variable.
func (t *Table) AddGlobal(name string, addr uint64, ty ctype.Type) (*Symbol, error) {
	s := &Symbol{Name: name, Addr: addr, Type: ty, Kind: KindGlobal}
	if err := t.globals.insert(s); err != nil {
		return nil, err
	}
	return s, nil
}

// AddHeap registers a heap block (e.g. at a malloc call).
func (t *Table) AddHeap(name string, addr uint64, ty ctype.Type, fn string) (*Symbol, error) {
	s := &Symbol{Name: name, Addr: addr, Type: ty, Kind: KindHeap, Func: fn}
	if err := t.heap.insert(s); err != nil {
		return nil, err
	}
	return s, nil
}

// RemoveHeap drops the heap block starting at addr (free). It reports
// whether a block was removed.
func (t *Table) RemoveHeap(addr uint64) bool { return t.heap.remove(addr) }

// PushFrame opens a new local scope for a call to fn.
func (t *Table) PushFrame(fn string) {
	t.frames = append(t.frames, &frameScope{fn: fn, depth: len(t.frames)})
}

// PopFrame closes the innermost local scope.
func (t *Table) PopFrame() {
	if len(t.frames) == 0 {
		panic("symtab: PopFrame on empty frame stack")
	}
	t.frames = t.frames[:len(t.frames)-1]
}

// FrameDepth returns the number of open frames.
func (t *Table) FrameDepth() int { return len(t.frames) }

// AddLocal registers a stack variable in the innermost frame.
func (t *Table) AddLocal(name string, addr uint64, ty ctype.Type) (*Symbol, error) {
	if len(t.frames) == 0 {
		return nil, fmt.Errorf("symtab: local %s declared outside any frame", name)
	}
	fr := t.frames[len(t.frames)-1]
	if s, ok := fr.lookup(addr); ok && s.Addr == addr && s.Name == name && s.Type == ty {
		// A block local declared again, as on every iteration of a loop
		// body, in the slot it last held: the symbol is the same.
		return s, nil
	}
	s := &Symbol{Name: name, Addr: addr, Type: ty, Kind: KindLocal, Func: fr.fn, Depth: fr.depth}
	fr.insertReplacing(s)
	return s, nil
}

// Lookup finds the live symbol covering addr, preferring inner frames, then
// outer frames, then globals, then heap blocks. It returns the symbol and
// the byte offset of addr within it.
func (t *Table) Lookup(addr uint64) (*Symbol, int64, bool) {
	for i := len(t.frames) - 1; i >= 0; i-- {
		if s, ok := t.frames[i].lookup(addr); ok {
			return s, int64(addr - s.Addr), true
		}
	}
	if s, ok := t.globals.lookup(addr); ok {
		return s, int64(addr - s.Addr), true
	}
	if s, ok := t.heap.lookup(addr); ok {
		return s, int64(addr - s.Addr), true
	}
	return nil, 0, false
}

// Ref is the debug annotation for one raw address: everything the Gleipnir
// trace line needs beyond op/addr/size/function.
type Ref struct {
	Sym *Symbol
	// Expr is the rendered access expression, e.g. lSoA.mX[3].
	Expr ctype.AccessExpr
	// Aggregate is true when the symbol's type is a struct or array (the
	// trace's S vs V scope suffix).
	Aggregate bool
	// FrameDistance is (current depth - owning frame depth) for locals:
	// 0 for the executing function's own variables, 1 for the caller's, ….
	FrameDistance int
}

// Describe annotates a raw address. currentDepth is the call depth of the
// executing function (Table.FrameDepth()-1 during execution); it determines
// FrameDistance for locals.
func (t *Table) Describe(addr uint64, currentDepth int) (Ref, bool) {
	sym, off, ok := t.Lookup(addr)
	if !ok {
		return Ref{}, false
	}
	ref := Ref{
		Sym:       sym,
		Expr:      ctype.AccessExpr{Root: sym.Name, Path: t.pathFor(addr, sym.Type, off)},
		Aggregate: ctype.IsAggregate(sym.Type),
	}
	if sym.Kind == KindLocal {
		ref.FrameDistance = currentDepth - sym.Depth
		if ref.FrameDistance < 0 {
			ref.FrameDistance = 0
		}
	}
	return ref, true
}

// pathFor returns the access path of byte off within ty, the type of the
// symbol covering addr. It reuses the path it returned last time for the
// same type and offset if addr's memo slot still holds it, so records of
// one element share one path; paths are never written to once returned.
// The memo is keyed by type identity, not by symbol, since a heap block is
// retyped when its pointer is first stored (minic's storeTo).
func (t *Table) pathFor(addr uint64, ty ctype.Type, off int64) ctype.Path {
	if !ctype.IsAggregate(ty) {
		return nil
	}
	if t.paths == nil {
		t.paths = make([]pathMemo, pathMemoSlots)
	}
	m := &t.paths[(addr>>2)&(pathMemoSlots-1)]
	if m.off == off && m.t == ty {
		return m.path
	}
	path, _, err := ctype.PathForOffset(ty, off)
	if err != nil {
		// Address inside the symbol but past a resolvable sub-object —
		// annotate with the bare symbol.
		path = nil
	}
	*m = pathMemo{t: ty, off: off, path: path}
	return path
}

// Globals returns the registered globals in address order (for reports).
func (t *Table) Globals() []*Symbol {
	out := make([]*Symbol, len(t.globals.syms))
	copy(out, t.globals.syms)
	return out
}
