package tracer

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"tracedst/internal/minic"
	"tracedst/internal/trace"
	"tracedst/internal/workloads"
)

func mustRun(t *testing.T, src string, defines map[string]string, opts Options) *Result {
	t.Helper()
	res, err := Run(src, defines, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// lines renders records as trace text for substring assertions.
func lines(res *Result) []string {
	out := make([]string, len(res.Records))
	for i := range res.Records {
		out[i] = res.Records[i].String()
	}
	return out
}

// TestListing2Trace checks the structural properties of the paper's
// Listing 2 against our trace of Listing 1.
func TestListing2Trace(t *testing.T) {
	res := mustRun(t, workloads.Listing1, nil, Options{})
	ls := lines(res)
	text := strings.Join(ls, "\n")

	// 1. The trace opens with the client-request artifact: an annotated
	//    store to _zzq_result followed by an unannotated load (lines 2-3).
	if !strings.Contains(ls[0], "_zzq_result") || !strings.HasPrefix(ls[0], "S ") {
		t.Errorf("first line = %q", ls[0])
	}
	if res.Records[1].Op != trace.Load || res.Records[1].HasSym {
		t.Errorf("second line = %q, want unannotated load", ls[1])
	}
	if res.Records[0].Addr != res.Records[1].Addr {
		t.Error("zzq store/load addresses differ")
	}

	// 2. Global scalar store: "S … 4 main GV glScalar" (line 4).
	if !strings.Contains(text, "4 main GV glScalar") {
		t.Errorf("no glScalar store:\n%s", text)
	}

	// 3. Loop locals: "main LV 0 1 i" loads and a modify.
	if !strings.Contains(text, "main LV 0 1 i") {
		t.Error("no annotated loop variable access")
	}
	foundModify := false
	for _, r := range res.Records {
		if r.Op == trace.Modify && r.HasSym && r.Site.Var().Root == "i" {
			foundModify = true
		}
	}
	if !foundModify {
		t.Error("no M record for i++")
	}

	// 4. Local aggregate: "main LS 0 1 lcArray[0]" and "lcArray[1]".
	if !strings.Contains(text, "main LS 0 1 lcArray[0]") ||
		!strings.Contains(text, "main LS 0 1 lcArray[1]") {
		t.Errorf("lcArray accesses missing:\n%s", text)
	}

	// 5. Call protocol: unannotated 8-byte stores attributed to main then
	//    foo (lines 18-19), then foo's StrcParam parameter store (line 20).
	var retIdx = -1
	for i := 0; i+2 < len(res.Records); i++ {
		a, b, c := &res.Records[i], &res.Records[i+1], &res.Records[i+2]
		if a.Op == trace.Store && !a.HasSym && a.Site.Func() == "main" && a.Size == 8 &&
			b.Op == trace.Store && !b.HasSym && b.Site.Func() == "foo" && b.Size == 8 &&
			c.Op == trace.Store && c.HasSym && c.Site.Func() == "foo" && c.Site.Var().Root == "StrcParam" {
			retIdx = i
			break
		}
	}
	if retIdx < 0 {
		t.Errorf("call protocol lines not found:\n%s", text)
	}

	// 6. Inside foo: global struct-array elements with full paths
	//    (lines 25, 29, 39, 43).
	for _, want := range []string{
		"foo GS glStructArray[0].d1",
		"foo GS glStructArray[0].myArray[0]",
		"foo GS glStructArray[1].d1",
		"foo GS glStructArray[1].myArray[1]",
		"foo GS glArray[1]",
		"foo GS glArray[0]",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in trace", want)
		}
	}

	// 7. foo writing into main's frame through StrcParam: frame distance 1
	//    (line 34: "S … 8 foo LS 1 1 lcStrcArray[0].d1").
	if !strings.Contains(text, "foo LS 1 1 lcStrcArray[0].d1") {
		t.Errorf("caller-frame write not annotated with distance 1:\n%s", text)
	}

	// 8. Globals never carry frame/thread columns.
	for _, r := range res.Records {
		if r.HasSym && r.Vis == trace.Global {
			parts := strings.Fields(r.String())
			if len(parts) != 6 {
				t.Errorf("global record %q has %d fields, want 6", r.String(), len(parts))
			}
		}
	}
}

// TestTrans1SoATrace checks the Fig 5 (left side) pattern.
func TestTrans1SoATrace(t *testing.T) {
	res := mustRun(t, workloads.Trans1SoA, map[string]string{"LEN": "16"}, Options{})
	text := strings.Join(lines(res), "\n")
	for _, want := range []string{
		"main LS 0 1 lSoA.mX[0]",
		"main LS 0 1 lSoA.mY[0]",
		"main LS 0 1 lSoA.mX[15]",
		"main LS 0 1 lSoA.mY[15]",
		"main LV 0 1 lI",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q", want)
		}
	}
	// mX elements are 4 bytes apart, mY 8 bytes apart, and the mY block
	// starts 64 bytes after mX (the SoA layout for LEN=16).
	var mx0, mx1, my0 uint64
	for _, r := range res.Records {
		if !r.HasSym {
			continue
		}
		switch r.Site.Var().String() {
		case "lSoA.mX[0]":
			mx0 = r.Addr
		case "lSoA.mX[1]":
			mx1 = r.Addr
		case "lSoA.mY[0]":
			my0 = r.Addr
		}
	}
	if mx1-mx0 != 4 {
		t.Errorf("mX stride = %d", mx1-mx0)
	}
	if my0-mx0 != 64 {
		t.Errorf("mY offset = %d, want 64", my0-mx0)
	}
}

// TestTrans1AoSTrace checks the Fig 5 (right side) reference pattern the
// transformation engine must reproduce.
func TestTrans1AoSTrace(t *testing.T) {
	res := mustRun(t, workloads.Trans1AoS, map[string]string{"LEN": "16"}, Options{})
	var x0, y0, x1 uint64
	for _, r := range res.Records {
		if !r.HasSym {
			continue
		}
		switch r.Site.Var().String() {
		case "lAoS[0].mX":
			x0 = r.Addr
		case "lAoS[0].mY":
			y0 = r.Addr
		case "lAoS[1].mX":
			x1 = r.Addr
		}
	}
	if y0-x0 != 8 {
		t.Errorf("mY offset within struct = %d, want 8 (alignment padding)", y0-x0)
	}
	if x1-x0 != 16 {
		t.Errorf("struct stride = %d, want 16", x1-x0)
	}
}

// TestInstrumentationWindow: the outlined program's pointer-setup loop runs
// before GLEIPNIR_START_INSTRUMENTATION and must be dropped.
func TestInstrumentationWindow(t *testing.T) {
	res := mustRun(t, workloads.Trans2Outlined, map[string]string{"LEN": "16"}, Options{})
	if res.Interp == nil || res.Return != 0 {
		t.Errorf("result = %+v", res)
	}
	tr := strings.Join(lines(res), "\n")
	// No store of the mRarelyUsed pointer fields may appear (setup loop).
	for _, r := range res.Records {
		if r.Op == trace.Store && r.HasSym && r.Size == 8 &&
			strings.HasSuffix(r.Site.Var().String(), ".mRarelyUsed") {
			t.Errorf("setup-loop store leaked into trace: %s", r.String())
		}
	}
	// But pointer loads (indirection) must be present.
	if !strings.Contains(tr, ".mRarelyUsed") {
		t.Errorf("no pointer indirection in trace:\n%s", tr)
	}
	// Dropped counter saw the setup loop.
	if res2, _ := Run(workloads.Trans2Outlined, map[string]string{"LEN": "16"}, Options{}); res2 != nil {
		// Access the tracer indirectly: Dropped is internal to the run, so
		// re-run with a fresh tracer here to check the counter.
		_ = res2
	}
}

func TestDroppedCounter(t *testing.T) {
	// Without markers and without TraceAll, everything is dropped.
	res := mustRun(t, `int g; int main(void) { g = 1; return g; }`, nil, Options{})
	if len(res.Records) != 0 {
		t.Errorf("records = %d, want 0", len(res.Records))
	}
}

func TestTraceAllOption(t *testing.T) {
	res := mustRun(t, `int g; int main(void) { g = 1; return g; }`, nil, Options{TraceAll: true})
	if len(res.Records) != 2 { // S g, L g
		t.Errorf("records = %d, want 2: %v", len(res.Records), lines(res))
	}
}

func TestHeaderAndWriteTo(t *testing.T) {
	res := mustRun(t, workloads.Trans1SoA, map[string]string{"LEN": "4"}, Options{PID: 11580})
	if res.Header.PID != 11580 {
		t.Errorf("pid = %d", res.Header.PID)
	}
	tr := New(Options{PID: 11580})
	tr.Records = res.Records
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	h, recs, err := trace.ParseAll(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if h.PID != 11580 || len(recs) != len(res.Records) {
		t.Errorf("round trip: pid=%d n=%d want %d", h.PID, len(recs), len(res.Records))
	}
	for i := range recs {
		if !recs[i].Equal(&res.Records[i]) {
			t.Fatalf("record %d mismatch: %q vs %q", i, recs[i].String(), res.Records[i].String())
		}
	}
}

func TestHeapTraceAnnotations(t *testing.T) {
	res := mustRun(t, workloads.ListTraversal, map[string]string{"N": "8"}, Options{})
	text := strings.Join(lines(res), "\n")
	// Heap accesses are annotated as global-visibility aggregates of the
	// malloc block, with element paths.
	if !strings.Contains(text, "GS heap_main_1[") {
		t.Errorf("heap annotations missing:\n%s", text)
	}
	if res.Return != 28 { // 0+1+…+7
		t.Errorf("list sum = %d", res.Return)
	}
}

func TestThreadOption(t *testing.T) {
	res := mustRun(t, workloads.Trans1SoA, map[string]string{"LEN": "2"}, Options{Thread: 3})
	for _, r := range res.Records {
		if r.HasSym && r.Vis == trace.Local && r.Site.Thread() != 3 {
			t.Errorf("thread = %d in %s", r.Site.Thread(), r.String())
		}
	}
}

func TestRunParseError(t *testing.T) {
	if _, err := Run("this is not C", nil, Options{}); err == nil {
		t.Error("parse error not propagated")
	}
}

func TestRunRuntimeError(t *testing.T) {
	if _, err := Run(`int main(void) { int x; x = 1/0; return x; }`, nil, Options{}); err == nil {
		t.Error("runtime error not propagated")
	}
}

// TestFig5LoopShape verifies the per-iteration op pattern of Fig 5's left
// column: S lI; then per iteration L lI (cond), L lI (rhs), L lI (idx),
// S mX[k], L lI, L lI, S mY[k], M lI; and a final failing-condition load.
func TestFig5LoopShape(t *testing.T) {
	res := mustRun(t, workloads.Trans1SoA, map[string]string{"LEN": "2"}, Options{})
	var ops []byte
	for _, r := range res.Records {
		ops = append(ops, byte(r.Op))
	}
	// zzq: S L, then loop.
	want := "SL" + "S" + "LLLSLLSM" + "LLLSLLSM" + "L"
	if string(ops) != want {
		t.Errorf("ops = %s\nwant %s", ops, want)
	}
}

func TestMaxRecordsCap(t *testing.T) {
	res := mustRun(t, workloads.Trans1SoA, map[string]string{"LEN": "16"}, Options{MaxRecords: 10})
	if len(res.Records) != 10 {
		t.Errorf("records = %d, want capped at 10", len(res.Records))
	}
	// The program still ran to completion.
	if res.Return != 0 {
		t.Errorf("return = %d", res.Return)
	}
}

// TestCallInsideLValueKeepsItsLoads: a call made while an lvalue's address
// is computed starts its own load deduplication, as compiled code reuses a
// register only within one address computation. g's two loads of x both
// appear, while main's second load of i within its own lvalue stays
// deduplicated.
func TestCallInsideLValueKeepsItsLoads(t *testing.T) {
	const src = `
int x;
int m[4][4];
int g(void) {
	int a = x;
	int b = x;
	return 1;
}
int main(void) {
	int i;
	i = 2;
	m[i][g() + i] = 1;
	return 0;
}`
	res := mustRun(t, src, nil, Options{TraceAll: true})
	var xLoads, iLoads int
	for _, r := range res.Records {
		if r.Op != trace.Load || !r.HasSym {
			continue
		}
		switch {
		case r.Site.Func() == "g" && r.Site.Var().Root == "x":
			xLoads++
		case r.Site.Func() == "main" && r.Site.Var().Root == "i":
			iLoads++
		}
	}
	if xLoads != 2 || iLoads != 1 {
		t.Errorf("g loads x %d times, main loads i %d times; want 2 and 1:\n%s",
			xLoads, iLoads, strings.Join(lines(res), "\n"))
	}
	if last := res.Records[len(res.Records)-1]; last.Op != trace.Store || last.Site.Var().String() != "m[2][3]" {
		t.Errorf("last record %q, want the store to m[2][3]", last.String())
	}
}

// TestChunkedCollection: a trace many chunks long comes back whole and in
// order from RunProgram and from WriteTo, MaxRecords counts every chunk,
// and a short trace does not pay for a full chunk.
func TestChunkedCollection(t *testing.T) {
	defs := map[string]string{"LEN": "4096"} // 20,484 records: five full chunks and four more
	res := mustRun(t, workloads.Trans1SoA, defs, Options{})
	if len(res.Records) <= 4*chunkRecords {
		t.Fatalf("%d records, want more than %d", len(res.Records), 4*chunkRecords)
	}
	if cap(res.Records) != len(res.Records) {
		t.Errorf("joined trace: len %d, cap %d; want exact size", len(res.Records), cap(res.Records))
	}
	tr := New(Options{})
	in := minic.NewInterp(mustParse(t, workloads.Trans1SoA, defs), tr)
	tr.Attach(in)
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	_, recs, err := trace.ParseAll(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(res.Records) {
		t.Fatalf("WriteTo wrote %d records, RunProgram returned %d", len(recs), len(res.Records))
	}
	for i := range recs {
		if !recs[i].Equal(&res.Records[i]) {
			t.Fatalf("record %d: WriteTo %q, RunProgram %q", i, recs[i].String(), res.Records[i].String())
		}
	}

	limit := 3*chunkRecords + 5
	capped := mustRun(t, workloads.Trans1SoA, defs, Options{MaxRecords: limit})
	if len(capped.Records) != limit {
		t.Errorf("MaxRecords %d kept %d records", limit, len(capped.Records))
	}

	short := mustRun(t, workloads.Listing1, nil, Options{})
	if c := cap(short.Records); c >= chunkRecords || c > 2*len(short.Records) {
		t.Errorf("a %d-record trace holds capacity for %d", len(short.Records), c)
	}
}

// drainingListener reads and truncates the tracer's Records every block
// right after Access, as a streaming consumer does.
type drainingListener struct {
	t   *Tracer
	got []trace.Record
}

func (l *drainingListener) Instrument(on bool) { l.t.Instrument(on) }

func (l *drainingListener) Access(op minic.AccessOp, addr uint64, size int64, fn string, depth int) {
	l.t.Access(op, addr, size, fn, depth)
	if len(l.t.Records) >= trace.DefaultBlockRecords {
		l.drain()
	}
}

func (l *drainingListener) drain() {
	l.got = append(l.got, l.t.Records...)
	l.t.Records = l.t.Records[:0]
}

// TestDrainingListenerSeesEveryRecord: a listener that drains Records every
// block sees the whole trace, in order, and the tracer seals no chunk.
func TestDrainingListenerSeesEveryRecord(t *testing.T) {
	defs := map[string]string{"LEN": "4096"}
	want := mustRun(t, workloads.Trans1SoA, defs, Options{}).Records
	tr := New(Options{})
	l := &drainingListener{t: tr}
	in := minic.NewInterp(mustParse(t, workloads.Trans1SoA, defs), l)
	tr.Attach(in)
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	l.drain()
	if len(tr.sealed) != 0 {
		t.Errorf("%d chunks sealed under a draining listener", len(tr.sealed))
	}
	if len(l.got) != len(want) {
		t.Fatalf("listener saw %d records, want %d", len(l.got), len(want))
	}
	for i := range want {
		if !l.got[i].Equal(&want[i]) {
			t.Fatalf("record %d: listener saw %q, want %q", i, l.got[i].String(), want[i].String())
		}
	}
}

func mustParse(t *testing.T, src string, defines map[string]string) *minic.Program {
	t.Helper()
	prog, err := minic.Parse(src, defines)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestSitesShared: the tracer hands every record of one function, symbol
// and element the same site, carved from a slab: tracing a sweep over an
// array of 4,096 elements makes no allocation per element, where a path
// and a site of its own each would make two. The memo is direct-mapped by
// address, so an array larger than it may evict a scalar's site now and
// then: lI loses its slot once here.
func TestSitesShared(t *testing.T) {
	const n = 4096
	defs := map[string]string{"LEN": fmt.Sprint(n)}
	res, err := Run(workloads.Trans1SoA, defs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sites, spellings := siteCount(res.Records)
	if sites > spellings+1 || spellings < 2*n {
		t.Errorf("%d records hold %d sites for %d spellings, want one per spelling", len(res.Records), sites, spellings)
	}
	// A matrix product sweeps its operands again and again: one 18 KiB
	// operand alone outgrows a 4,096-slot memo.
	mm, err := Run(workloads.MatMul, map[string]string{"N": "48"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sites, spellings := siteCount(mm.Records); 100*sites > 101*spellings {
		t.Errorf("matmul N=48: %d records hold %d sites for %d spellings, want within 1%%", len(mm.Records), sites, spellings)
	}
	prog, err := minic.Parse(workloads.Trans1SoA, defs)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := RunProgram(prog, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > n/4 {
		t.Errorf("tracing %d records over %d sites made %.0f allocations, want ≤ %d", len(res.Records), sites, allocs, n/4)
	}
}

// siteCount returns how many distinct sites recs hold and how many
// spellings — function, variable, frame and thread — they name.
func siteCount(recs []trace.Record) (sites, spellings int) {
	bySite, bySpelling := map[*trace.Site]bool{}, map[string]bool{}
	for i := range recs {
		s := recs[i].Site
		bySite[s] = true
		bySpelling[fmt.Sprint(s.Func(), " ", s.Var().String(), " ", s.Frame(), " ", s.Thread())] = true
	}
	return len(bySite), len(bySpelling)
}

// TestRecursionTwoFrames: a recursive function that reads its caller's
// local through a pointer names one variable spelling in two frames —
// its own (0) and its caller's (1) — and no site serves both: each holds
// the frame its records name. A call's own n sits where the next call
// reads its caller's, so one memo slot sees both frames.
func TestRecursionTwoFrames(t *testing.T) {
	const src = `
int walk(int *p, int d) {
	int n;
	n = *p + 1;
	if (d > 0) {
		walk(&n, d - 1);
	}
	return n;
}

int main(void) {
	int n;
	n = 0;
	GLEIPNIR_START_INSTRUMENTATION;
	walk(&n, 3);
	GLEIPNIR_STOP_INSTRUMENTATION;
	return 0;
}`
	res := mustRun(t, src, nil, Options{Thread: 2})
	byFrame := map[int32]map[*trace.Site]bool{}
	// Each of the four calls loads its caller's n (*p), stores its own
	// and loads it to return it.
	got := map[string]int{}
	for i := range res.Records {
		r := &res.Records[i]
		if !r.HasSym || r.Site.Func() != "walk" || r.Site.Var().Root != "n" {
			continue
		}
		got[fmt.Sprint(r.Op, " in frame ", r.Site.Frame())]++
		if r.Vis != trace.Local || r.Site.Thread() != 2 {
			t.Fatalf("%s: want a local on thread 2", r.String())
		}
		if byFrame[r.Site.Frame()] == nil {
			byFrame[r.Site.Frame()] = map[*trace.Site]bool{}
		}
		byFrame[r.Site.Frame()][r.Site] = true
	}
	for _, k := range []string{"L in frame 1", "S in frame 0", "L in frame 0"} {
		if got[k] != 4 {
			t.Errorf("walk's n: %d records %s, want 4 (got %v)", got[k], k, got)
		}
	}
	if len(byFrame) != 2 || len(byFrame[0]) == 0 || len(byFrame[1]) == 0 {
		t.Fatalf("walk's n in frames %v, want 0 and 1", byFrame)
	}
	for f, sites := range byFrame {
		for s := range sites {
			if byFrame[1-f][s] {
				t.Errorf("frames 0 and 1 share site %p", s)
			}
		}
	}
	text := strings.Join(lines(res), "\n")
	for _, want := range []string{"walk LV 0 2 n", "walk LV 1 2 n"} {
		if !strings.Contains(text, want) {
			t.Errorf("trace lacks %q:\n%s", want, text)
		}
	}
}
