package symtab

import (
	"testing"

	"tracedst/internal/ctype"
)

func typeA() *ctype.Struct {
	return ctype.NewStruct("_typeA", []ctype.Field{
		{Name: "d1", Type: ctype.Double},
		{Name: "myArray", Type: ctype.NewArray(ctype.Int, 10)},
	})
}

func TestGlobalLookupAndDescribe(t *testing.T) {
	tb := New()
	arr := ctype.NewArray(typeA(), 10)
	if _, err := tb.AddGlobal("glStructArray", 0x6010e0, arr); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AddGlobal("glScalar", 0x601040, ctype.Int); err != nil {
		t.Fatal(err)
	}

	// glStructArray[1].myArray[1]: 0x6010e0 + 48 + 8 + 4 = 0x60111c (paper line 43).
	ref, ok := tb.Describe(0x60111c, 0)
	if !ok {
		t.Fatal("describe failed")
	}
	if got := ref.Expr.String(); got != "glStructArray[1].myArray[1]" {
		t.Errorf("expr = %q", got)
	}
	if !ref.Aggregate {
		t.Error("array symbol should be aggregate")
	}

	ref, ok = tb.Describe(0x601040, 0)
	if !ok || ref.Expr.String() != "glScalar" || ref.Aggregate {
		t.Errorf("glScalar ref = %+v ok=%v", ref, ok)
	}
}

func TestLookupMiss(t *testing.T) {
	tb := New()
	if _, err := tb.AddGlobal("x", 0x601040, ctype.Int); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := tb.Lookup(0x601044); ok {
		t.Error("lookup past end should miss")
	}
	if _, _, ok := tb.Lookup(0x60103f); ok {
		t.Error("lookup before start should miss")
	}
	if _, ok := tb.Describe(0xdead, 0); ok {
		t.Error("describe of unmapped address should fail")
	}
}

func TestOverlapRejected(t *testing.T) {
	tb := New()
	if _, err := tb.AddGlobal("a", 0x601040, ctype.NewArray(ctype.Int, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AddGlobal("b", 0x601048, ctype.Int); err == nil {
		t.Error("overlapping global accepted")
	}
	if _, err := tb.AddGlobal("c", 0x60103c, ctype.NewArray(ctype.Int, 2)); err == nil {
		t.Error("overlap from below accepted")
	}
	if _, err := tb.AddGlobal("d", 0x601050, ctype.Int); err != nil {
		t.Errorf("adjacent global rejected: %v", err)
	}
}

func TestFrameScopesAndDistance(t *testing.T) {
	tb := New()
	tb.PushFrame("main")
	if _, err := tb.AddLocal("lcStrcArray", 0x7ff000060, ctype.NewArray(typeA(), 5)); err != nil {
		t.Fatal(err)
	}
	tb.PushFrame("foo")
	if _, err := tb.AddLocal("i", 0x7ff000044, ctype.Int); err != nil {
		t.Fatal(err)
	}

	// foo (depth 1) touching its own local: distance 0.
	ref, ok := tb.Describe(0x7ff000044, 1)
	if !ok || ref.FrameDistance != 0 || ref.Expr.Root != "i" {
		t.Errorf("own local: %+v ok=%v", ref, ok)
	}
	// foo touching main's local through a pointer: distance 1 (paper's
	// "S 7ff000060 8 foo LS 1 1 lcStrcArray[0].d1").
	ref, ok = tb.Describe(0x7ff000060, 1)
	if !ok || ref.FrameDistance != 1 {
		t.Errorf("caller local: %+v ok=%v", ref, ok)
	}
	if got := ref.Expr.String(); got != "lcStrcArray[0].d1" {
		t.Errorf("expr = %q", got)
	}

	tb.PopFrame()
	if _, _, ok := tb.Lookup(0x7ff000044); ok {
		t.Error("popped frame's local still visible")
	}
	if _, _, ok := tb.Lookup(0x7ff000060); !ok {
		t.Error("main's local vanished after inner pop")
	}
}

func TestLocalOutsideFrame(t *testing.T) {
	tb := New()
	if _, err := tb.AddLocal("x", 0x7ff000000, ctype.Int); err == nil {
		t.Error("local outside frame accepted")
	}
}

func TestPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PopFrame on empty stack did not panic")
		}
	}()
	New().PopFrame()
}

func TestInnerFrameShadowsOuter(t *testing.T) {
	// Two frames can cover the same address only if the outer frame's local
	// died; since our allocator never reuses live addresses this is
	// synthetic, but Lookup must prefer the innermost frame regardless.
	tb := New()
	tb.PushFrame("main")
	if _, err := tb.AddLocal("outer", 0x7ff000100, ctype.Int); err != nil {
		t.Fatal(err)
	}
	tb.PushFrame("foo")
	if _, err := tb.AddLocal("inner", 0x7ff000100, ctype.Int); err != nil {
		t.Fatal(err)
	}
	s, _, ok := tb.Lookup(0x7ff000100)
	if !ok || s.Name != "inner" {
		t.Errorf("lookup = %v", s)
	}
}

func TestHeapBlocks(t *testing.T) {
	tb := New()
	blk := ctype.NewArray(ctype.Double, 8)
	if _, err := tb.AddHeap("malloc#1", 0x1000000, blk, "main"); err != nil {
		t.Fatal(err)
	}
	ref, ok := tb.Describe(0x1000010, 0)
	if !ok || ref.Expr.String() != "malloc#1[2]" {
		t.Errorf("heap describe = %+v ok=%v", ref, ok)
	}
	if !tb.RemoveHeap(0x1000000) {
		t.Error("RemoveHeap failed")
	}
	if tb.RemoveHeap(0x1000000) {
		t.Error("double free reported success")
	}
	if _, _, ok := tb.Lookup(0x1000010); ok {
		t.Error("freed block still visible")
	}
}

func TestGlobalsListing(t *testing.T) {
	tb := New()
	_, _ = tb.AddGlobal("b", 0x601100, ctype.Int)
	_, _ = tb.AddGlobal("a", 0x601040, ctype.Int)
	gs := tb.Globals()
	if len(gs) != 2 || gs[0].Name != "a" || gs[1].Name != "b" {
		t.Errorf("globals = %v", gs)
	}
}

func TestKindString(t *testing.T) {
	if KindGlobal.String() != "global" || KindLocal.String() != "local" ||
		KindHeap.String() != "heap" || Kind(9).String() != "Kind(9)" {
		t.Error("Kind.String broken")
	}
}

func TestSymbolContains(t *testing.T) {
	s := &Symbol{Name: "x", Addr: 0x100, Type: ctype.NewArray(ctype.Int, 2)}
	if !s.Contains(0x100) || !s.Contains(0x107) || s.Contains(0x108) || s.Contains(0xff) {
		t.Error("Contains boundaries wrong")
	}
}

// TestLocalSlotReuse: when a block exits and its stack memory is reused by
// a new local, AddLocal replaces the dead symbol rather than erroring, and
// lookups describe the new variable.
func TestLocalSlotReuse(t *testing.T) {
	tb := New()
	tb.PushFrame("main")
	if _, err := tb.AddLocal("first", 0x7ff000100, ctype.Int); err != nil {
		t.Fatal(err)
	}
	// Same slot, new life.
	if _, err := tb.AddLocal("second", 0x7ff000100, ctype.Int); err != nil {
		t.Fatal(err)
	}
	s, _, ok := tb.Lookup(0x7ff000100)
	if !ok || s.Name != "second" {
		t.Errorf("lookup after reuse = %v", s)
	}
	// Partial overlap also evicts the dead symbol.
	if _, err := tb.AddLocal("third", 0x7ff0000fc, ctype.NewArray(ctype.Int, 2)); err != nil {
		t.Fatal(err)
	}
	s, _, ok = tb.Lookup(0x7ff000100)
	if !ok || s.Name != "third" {
		t.Errorf("lookup after partial overlap = %v", s)
	}
	// Globals still reject overlaps (no block scoping in the data segment).
	if _, err := tb.AddGlobal("g1", 0x601040, ctype.Int); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AddGlobal("g2", 0x601040, ctype.Int); err == nil {
		t.Error("global overlap accepted")
	}
}

// TestMemoSlots: the address-keyed memos cover twice the program's global
// and heap data, between 4,096 and 65,536 slots; stack data does not
// count. The path memo grows to that size, empty, when data outgrows it,
// and still answers each element's path.
func TestMemoSlots(t *testing.T) {
	var none *Table
	if got := none.MemoSlots(); got != 1<<12 {
		t.Errorf("nil table: %d slots, want 4096", got)
	}
	tb := New()
	matrix := ctype.NewArray(ctype.NewArray(ctype.Double, 48), 48) // 18 KiB
	for i, name := range []string{"A", "B", "C"} {
		if _, err := tb.AddGlobal(name, 0x601040+uint64(i)*18432, matrix); err != nil {
			t.Fatal(err)
		}
	}
	tb.PushFrame("main")
	if _, err := tb.AddLocal("big", 0x7fe000000, ctype.NewArray(ctype.Int, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if got := tb.MemoSlots(); got != 1<<15 {
		t.Errorf("three 18 KiB globals: %d slots, want 32768 (2 × 13,824 words, rounded up)", got)
	}
	ref, ok := tb.Describe(0x601040+2*18432+8*50, 0)
	if !ok || ref.Expr.String() != "C[1][2]" || len(tb.paths) != 1<<15 {
		t.Errorf("Describe = %v, %v with %d path slots", ref.Expr, ok, len(tb.paths))
	}
	if _, err := tb.AddHeap("heap_main_1", 0x1000000, ctype.NewArray(ctype.Char, 1<<20), "main"); err != nil {
		t.Fatal(err)
	}
	if got := tb.MemoSlots(); got != 1<<16 {
		t.Errorf("a 1 MiB heap block: %d slots, want the 65536 cap", got)
	}
	ref, ok = tb.Describe(0x1000000+3, 0)
	if !ok || ref.Expr.String() != "heap_main_1[3]" || len(tb.paths) != 1<<16 {
		t.Errorf("Describe = %v, %v with %d path slots", ref.Expr, ok, len(tb.paths))
	}
}
