package minic

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"tracedst/internal/memmodel"
)

// recEvent is one recorded listener callback.
type recEvent struct {
	op    AccessOp
	addr  uint64
	size  int64
	fn    string
	depth int
}

type recorder struct {
	events []recEvent
	instr  []bool
}

func (r *recorder) Access(op AccessOp, addr uint64, size int64, fn string, depth int) {
	r.events = append(r.events, recEvent{op, addr, size, fn, depth})
}

func (r *recorder) Instrument(on bool) { r.instr = append(r.instr, on) }

// ops renders the recorded op sequence like "SLLLS".
func (r *recorder) ops() string {
	var b strings.Builder
	for _, e := range r.events {
		b.WriteByte(byte(e.op))
	}
	return b.String()
}

func run(t *testing.T, src string, defines map[string]string) (*Interp, *recorder, int64) {
	t.Helper()
	p := mustParse(t, src, defines)
	rec := &recorder{}
	in := NewInterp(p, rec)
	v, err := in.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return in, rec, v
}

func TestRunSimpleGlobalStore(t *testing.T) {
	in, rec, v := run(t, `int glScalar; int main(void) { glScalar = 321; return glScalar; }`, nil)
	if v != 321 {
		t.Errorf("return = %d", v)
	}
	if len(rec.events) != 2 {
		t.Fatalf("events = %+v", rec.events)
	}
	if rec.events[0].op != OpStore || rec.events[0].addr != memmodel.DataBase || rec.events[0].size != 4 {
		t.Errorf("store = %+v", rec.events[0])
	}
	if rec.events[1].op != OpLoad || rec.events[1].fn != "main" || rec.events[1].depth != 0 {
		t.Errorf("load = %+v", rec.events[1])
	}
	if in.Steps() == 0 {
		t.Error("no steps counted")
	}
}

// The paper's loop pattern (Listing 2 trace lines 6-17):
// for (i=0; i<2; i++) lcArray[i] = glScalar;
// must produce S(i) then per iteration L(i) L(glScalar) L(i) S(lcArray[i]) M(i),
// with a final failing condition load.
func TestRunLoopEventPattern(t *testing.T) {
	src := `int glScalar;
int main(void) {
	int i, lcArray[10];
	glScalar = 321;
	for (i=0; i<2; i++)
		lcArray[i] = glScalar;
	return 0;
}`
	_, rec, _ := run(t, src, nil)
	// S(glScalar) S(i) | L(i) L(glScalar) L(i) S(arr) M(i) | ... | L(i)
	want := "SS" + "LLLSM" + "LLLSM" + "L"
	if rec.ops() != want {
		t.Errorf("ops = %s, want %s", rec.ops(), want)
	}
	// lcArray stores are 4 bytes apart.
	s0, s1 := rec.events[5], rec.events[10]
	if s1.addr-s0.addr != 4 {
		t.Errorf("consecutive element stores at %#x then %#x", s0.addr, s1.addr)
	}
}

// Address-computation deduplication: glStructArray[i].myArray[i] loads i
// once (paper trace lines 26-29: L i, L glArray[1], L i, S ...).
func TestRunLValueDedup(t *testing.T) {
	src := `
struct _typeA { double d1; int myArray[10]; };
struct _typeA glStructArray[10];
int glArray[10];
int main(void) {
	int i;
	i = 0;
	glStructArray[i].myArray[i] = glArray[i+1];
	return 0;
}`
	_, rec, _ := run(t, src, nil)
	// S(i=0), then: L(i) L(glArray[1]) [rhs] L(i) [lhs, deduped] S(target)
	if got := rec.ops(); got != "SLLLS" {
		t.Errorf("ops = %s, want SLLLS", got)
	}
}

// Call protocol: return-address push attributed to the caller, frame save
// and parameter stores to the callee (paper trace lines 18-20).
func TestRunCallProtocol(t *testing.T) {
	src := `
void foo(int x) { x = x; }
int main(void) {
	foo(7);
	return 0;
}`
	_, rec, _ := run(t, src, nil)
	// S retaddr (main), S rbp (foo), S param x (foo), then body L x, M?  x = x is L then S.
	if len(rec.events) < 5 {
		t.Fatalf("events = %+v", rec.events)
	}
	if rec.events[0].op != OpStore || rec.events[0].fn != "main" || rec.events[0].depth != 0 {
		t.Errorf("retaddr = %+v", rec.events[0])
	}
	if rec.events[1].op != OpStore || rec.events[1].fn != "foo" || rec.events[1].depth != 1 {
		t.Errorf("rbp = %+v", rec.events[1])
	}
	if rec.events[2].op != OpStore || rec.events[2].fn != "foo" || rec.events[2].size != 4 {
		t.Errorf("param = %+v", rec.events[2])
	}
	// Addresses descend down the stack.
	if !(rec.events[0].addr > rec.events[1].addr && rec.events[1].addr > rec.events[2].addr) {
		t.Errorf("stack layout: %#x %#x %#x", rec.events[0].addr, rec.events[1].addr, rec.events[2].addr)
	}
}

func TestRunFunctionReturnValue(t *testing.T) {
	src := `
int add(int a, int b) { return a + b; }
int main(void) { int r; r = add(2, 40); return r; }`
	_, _, v := run(t, src, nil)
	if v != 42 {
		t.Errorf("return = %d", v)
	}
}

// Pointer outlining pattern (Listing 7): p->field access loads the pointer.
func TestRunPointerIndirection(t *testing.T) {
	src := `
typedef struct { double mY; int mZ; } RarelyUsed;
typedef struct { int mFrequentlyUsed; RarelyUsed *mRarelyUsed; } MyOutlinedStruct;
int main(void) {
	RarelyUsed lStorageForRarelyUsed[16];
	MyOutlinedStruct lS2[16];
	int lI;
	for (lI=0 ; lI<1 ; lI++) {
		lS2[lI].mRarelyUsed = lStorageForRarelyUsed+lI;
	}
	lI = 0;
	lS2[lI].mRarelyUsed->mY = lI;
	return 0;
}`
	_, rec, _ := run(t, src, nil)
	ops := rec.ops()
	// Tail of the trace: S(lI=0), L(lI rhs), L(lI index), L(pointer), S(pool.mY)
	if !strings.HasSuffix(ops, "SLLLS") {
		t.Errorf("ops = %s, want suffix SLLLS", ops)
	}
	// The inserted pointer load is 8 bytes; the final store is the double.
	n := len(rec.events)
	if rec.events[n-2].size != 8 || rec.events[n-1].size != 8 {
		t.Errorf("tail events = %+v", rec.events[n-2:])
	}
	// The store must land in lStorageForRarelyUsed, not in lS2: the pool was
	// declared first, so it sits at higher stack addresses.
	ptrLoad, store := rec.events[n-2], rec.events[n-1]
	if store.addr <= ptrLoad.addr {
		t.Errorf("outlined store at %#x not above pointer field %#x", store.addr, ptrLoad.addr)
	}
}

func TestRunPointerArithmeticValues(t *testing.T) {
	src := `
int main(void) {
	int a[4];
	int *p;
	int i;
	for (i=0; i<4; i++) a[i] = i*10;
	p = a + 1;
	return p[2];  // a[3] == 30
}`
	_, _, v := run(t, src, nil)
	if v != 30 {
		t.Errorf("p[2] = %d, want 30", v)
	}
}

func TestRunDerefAndAddressOf(t *testing.T) {
	src := `
int main(void) {
	int x, *p;
	x = 5;
	p = &x;
	*p = 9;
	return x + *p;
}`
	_, _, v := run(t, src, nil)
	if v != 18 {
		t.Errorf("got %d", v)
	}
}

func TestRunCompoundAssignEmitsModify(t *testing.T) {
	_, rec, v := run(t, `int main(void) { int x; x = 1; x += 4; return x; }`, nil)
	if v != 5 {
		t.Errorf("x = %d", v)
	}
	// S(x=1), M(x+=4), L(return x).
	if got := rec.ops(); got != "SML" {
		t.Errorf("ops = %s, want SML", got)
	}
}

func TestRunIncrementDecrement(t *testing.T) {
	src := `int main(void) {
	int i, j, s;
	i = 3;
	j = i++;     // j=3 i=4
	s = ++i;     // s=5 i=5
	i--;
	--i;         // i=3
	return i*100 + j*10 + s;
}`
	_, rec, v := run(t, src, nil)
	if v != 335 {
		t.Errorf("got %d, want 335", v)
	}
	if c := strings.Count(rec.ops(), "M"); c != 4 {
		t.Errorf("modify events = %d, want 4 (%s)", c, rec.ops())
	}
}

func TestRunControlFlow(t *testing.T) {
	src := `int main(void) {
	int i, n;
	n = 0;
	for (i = 0; i < 10; i++) {
		if (i == 3) continue;
		if (i == 7) break;
		n = n + i;
	}
	while (n < 20) n++;
	do { n = n + 2; } while (n < 25);
	return n;
}`
	_, _, v := run(t, src, nil)
	// sum 0..6 minus 3 = 18; while → 20; do-while → 26.
	if v != 26 {
		t.Errorf("got %d, want 26", v)
	}
}

func TestRunTernaryAndLogical(t *testing.T) {
	src := `int main(void) {
	int a, b;
	a = 5; b = 0;
	if (a > 0 && b == 0) b = a > 3 ? 1 : 2;
	if (a < 0 || b == 1) b += 10;
	return b;
}`
	_, _, v := run(t, src, nil)
	if v != 11 {
		t.Errorf("got %d, want 11", v)
	}
}

func TestRunFloatArithmetic(t *testing.T) {
	src := `int main(void) {
	double d;
	d = 1.5;
	d = d * 4.0;   // 6.0
	return (int) d + (int) 0.75;
}`
	_, _, v := run(t, src, nil)
	if v != 6 {
		t.Errorf("got %d, want 6", v)
	}
}

func TestRunIntegerTruncation(t *testing.T) {
	src := `int main(void) {
	char c;
	unsigned char u;
	c = 300;   // wraps to 44
	u = 300;   // wraps to 44
	return c + u;
}`
	_, _, v := run(t, src, nil)
	if v != 88 {
		t.Errorf("got %d, want 88", v)
	}
}

func TestRunGlobalInitializer(t *testing.T) {
	_, rec, v := run(t, `int g = 41; int main(void) { return g + 1; }`, nil)
	if v != 42 {
		t.Errorf("got %d", v)
	}
	// Static init must not emit events; only the load in main.
	if rec.ops() != "L" {
		t.Errorf("ops = %s", rec.ops())
	}
}

func TestRunGleipnirMarkers(t *testing.T) {
	src := `int main(void) {
	GLEIPNIR_START_INSTRUMENTATION;
	GLEIPNIR_STOP_INSTRUMENTATION;
	return 0;
}`
	in, rec, _ := run(t, src, nil)
	if len(rec.instr) != 2 || !rec.instr[0] || rec.instr[1] {
		t.Errorf("instrument events = %v", rec.instr)
	}
	// START touches _zzq_result: a store then a load of the same 8 bytes.
	if rec.ops() != "SL" {
		t.Fatalf("ops = %s", rec.ops())
	}
	if rec.events[0].addr != rec.events[1].addr || rec.events[0].size != 8 {
		t.Errorf("zzq events = %+v", rec.events)
	}
	// The slot must be resolvable as _zzq_result.
	ref, ok := in.Syms.Describe(rec.events[0].addr, 0)
	if ok { // frame is gone after Run; lookup may fail, which is fine
		if ref.Sym.Name != "_zzq_result" {
			t.Errorf("zzq symbol = %q", ref.Sym.Name)
		}
	}
}

func TestRunMallocFreeAndRetyping(t *testing.T) {
	src := `int main(void) {
	double *p;
	p = malloc(8 * sizeof(double));
	p[2] = 1.5;
	free(p);
	return 0;
}`
	p := mustParse(t, src, nil)
	rec := &recorder{}
	in := NewInterp(p, rec)
	var describedAs string
	// Intercept: after the store to p[2], resolve its address.
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	for _, e := range rec.events {
		if e.op == OpStore && e.size == 8 && memmodel.RegionOf(e.addr) == "heap" {
			// Block was freed, so symtab lookup fails now; but the event
			// address must be heap base + 16.
			if e.addr != memmodel.HeapBase+16 {
				t.Errorf("p[2] store at %#x", e.addr)
			}
			describedAs = "found"
		}
	}
	if describedAs == "" {
		t.Errorf("no heap store recorded: %+v", rec.events)
	}
}

func TestRunHeapDescribeWhileLive(t *testing.T) {
	src := `int main(void) {
	long *q;
	q = malloc(4 * sizeof(long));
	q[1] = 7;
	return (int) q[1];
}`
	p := mustParse(t, src, nil)
	rec := &recorder{}
	in := NewInterp(p, rec)
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	ref, ok := in.Syms.Describe(memmodel.HeapBase+8, 0)
	if !ok {
		t.Fatal("heap block not described")
	}
	if !strings.HasPrefix(ref.Sym.Name, "heap_main_") {
		t.Errorf("heap symbol = %q", ref.Sym.Name)
	}
	if ref.Expr.Path.String() != "[1]" {
		t.Errorf("heap path = %q (retyping failed?)", ref.Expr.Path.String())
	}
}

func TestRunDoubleFreeFails(t *testing.T) {
	src := `int main(void) {
	int *p;
	p = malloc(4);
	free(p);
	free(p);
	return 0;
}`
	prog := mustParse(t, src, nil)
	if _, err := NewInterp(prog, nil).Run(); err == nil {
		t.Error("double free not detected")
	}
}

func TestRunStepLimit(t *testing.T) {
	prog := mustParse(t, `int main(void) { while (1) { } return 0; }`, nil)
	in := NewInterp(prog, nil)
	in.StepLimit = 1000
	_, err := in.Run()
	if err == nil || !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("err = %v, want ErrBudgetExceeded", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Limit != 1000 {
		t.Errorf("err = %#v, want *BudgetError{Limit: 1000}", err)
	}
}

func TestRunContextCancellation(t *testing.T) {
	prog := mustParse(t, `int main(void) { while (1) { } return 0; }`, nil)
	in := NewInterp(prog, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	in.SetContext(ctx)
	start := time.Now()
	_, err := in.Run()
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
}

func TestRunRuntimeErrors(t *testing.T) {
	cases := []string{
		`int main(void) { int x; x = 1/0; return x; }`,
		`int main(void) { int x; x = 1%0; return x; }`,
		`int main(void) { return missing(); }`,
		`int main(void) { return undefined_var; }`,
		`int main(void) { int *p; free(p); return 0; }`,
		`int main(void) { int x; x = malloc(-4) == 0; return 0; }`,
	}
	for _, src := range cases {
		prog, err := Parse(src, nil)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := NewInterp(prog, nil).Run(); err == nil {
			t.Errorf("Run(%q) unexpectedly succeeded", src)
		}
	}
}

func TestRunNestedCallsFrameDistance(t *testing.T) {
	// foo writes through a pointer into main's frame; the symbol's depth
	// must be recoverable for the tracer's frame-distance computation.
	src := `
void foo(int *p) { *p = 9; }
int main(void) {
	int x;
	x = 1;
	foo(&x);
	return x;
}`
	p := mustParse(t, src, nil)
	rec := &recorder{}
	in := NewInterp(p, rec)
	v, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v != 9 {
		t.Errorf("x = %d", v)
	}
	// Find the store executed by foo into main's x.
	var found bool
	for _, e := range rec.events {
		if e.fn == "foo" && e.op == OpStore && e.size == 4 && e.depth == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("no store by foo at depth 1: %+v", rec.events)
	}
}

func TestRunDefinesParameterise(t *testing.T) {
	src := `int main(void) {
	int a[LEN];
	for (int i=0; i<LEN; i++) a[i] = i;
	return a[LEN-1];
}`
	_, _, v := run(t, src, map[string]string{"LEN": "16"})
	if v != 15 {
		t.Errorf("got %d", v)
	}
}

func TestRunSizeofExpr(t *testing.T) {
	src := `int main(void) {
	double d[4];
	return sizeof(d) + sizeof(d[0]) + sizeof(int);
}`
	_, rec, v := run(t, src, nil)
	if v != 32+8+4 {
		t.Errorf("got %d", v)
	}
	// sizeof does not evaluate its operand: no loads at all.
	if rec.ops() != "" {
		t.Errorf("ops = %s", rec.ops())
	}
}

func TestRunShadowingInBlocks(t *testing.T) {
	src := `int main(void) {
	int x;
	x = 1;
	{
		int x;
		x = 100;
	}
	return x;
}`
	_, _, v := run(t, src, nil)
	if v != 1 {
		t.Errorf("got %d, want outer x=1", v)
	}
}

func TestRunForScopedDecl(t *testing.T) {
	src := `int main(void) {
	int s;
	s = 0;
	for (int i=0; i<3; i++) s += i;
	for (int i=0; i<3; i++) s += i;
	return s;
}`
	_, _, v := run(t, src, nil)
	if v != 6 {
		t.Errorf("got %d", v)
	}
}

func TestRunMultiDimArray(t *testing.T) {
	src := `int main(void) {
	int m[3][4];
	for (int i=0; i<3; i++)
		for (int j=0; j<4; j++)
			m[i][j] = i*10 + j;
	return m[2][3];
}`
	_, _, v := run(t, src, nil)
	if v != 23 {
		t.Errorf("got %d", v)
	}
}

func TestRunStructCopyThroughMembers(t *testing.T) {
	src := `
struct P { int x; int y; };
struct P a, b;
int main(void) {
	a.x = 3; a.y = 4;
	b.x = a.x; b.y = a.y;
	return b.x * b.y;
}`
	_, _, v := run(t, src, nil)
	if v != 12 {
		t.Errorf("got %d", v)
	}
}

func ExampleInterp() {
	prog, _ := Parse(`int g; int main(void) { g = 7; return g; }`, nil)
	in := NewInterp(prog, nil)
	v, _ := in.Run()
	fmt.Println(v)
	// Output: 7
}

// TestRunAllocationsFlatInIterations: a loop whose body enters a block,
// declares a local and stores through a subscript allocates nothing per
// iteration — no map per block entry or lvalue, no slice per memory read,
// no symbol per re-declared local.
func TestRunAllocationsFlatInIterations(t *testing.T) {
	const src = `
int a[8];
int main(void) {
	for (int i = 0; i < N; i++) {
		int v;
		v = i % 8;
		a[v] = a[(v + 1) % 8] + i;
	}
	return a[0];
}`
	allocs := func(n int) float64 {
		p := mustParse(t, src, map[string]string{"N": fmt.Sprint(n)})
		return testing.AllocsPerRun(5, func() {
			if _, err := NewInterp(p, nil).Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(10), allocs(1000); many > few {
		t.Errorf("10 iterations allocate %.0f times, 1000 iterations %.0f", few, many)
	}
}
