package xform

import (
	"bytes"
	"strings"
	"testing"

	"tracedst/internal/rules"
	"tracedst/internal/trace"
	"tracedst/internal/tracer"
	"tracedst/internal/workloads"
)

func mustRule(t *testing.T, src string) rules.Rule {
	t.Helper()
	r, err := rules.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustEngine(t *testing.T, rs ...rules.Rule) *Engine {
	t.Helper()
	e, err := New(Options{}, rs...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func traceOf(t *testing.T, src string, defines map[string]string) []trace.Record {
	t.Helper()
	res, err := tracer.Run(src, defines, tracer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Records
}

func varStrings(recs []trace.Record) []string {
	var out []string
	for i := range recs {
		if recs[i].HasSym {
			out = append(out, recs[i].Site.Var().String())
		} else {
			out = append(out, "-")
		}
	}
	return out
}

// TestTrans1Fig5 reproduces Figure 5: transforming the SoA trace with the
// Listing 5 rule yields the access pattern of the hand-written AoS program.
func TestTrans1Fig5(t *testing.T) {
	orig := traceOf(t, workloads.Trans1SoA, map[string]string{"LEN": "16"})
	eng := mustEngine(t, mustRule(t, workloads.RuleTrans1))
	got, err := eng.TransformAll(orig)
	if err != nil {
		t.Fatal(err)
	}
	// Same record count: T1 inserts nothing (Fig 5 shows 1:1 lines).
	if len(got) != len(orig) {
		t.Fatalf("record count changed: %d → %d", len(orig), len(got))
	}
	// Reference: the hand-transformed program.
	ref := traceOf(t, workloads.Trans1AoS, map[string]string{"LEN": "16"})
	if len(ref) != len(got) {
		t.Fatalf("reference has %d records, transformed %d", len(ref), len(got))
	}
	for i := range got {
		g, r := &got[i], &ref[i]
		if g.Op != r.Op || g.Size != r.Size {
			t.Fatalf("record %d: op/size %c/%d vs reference %c/%d", i, g.Op, g.Size, r.Op, r.Size)
		}
		// Variable naming must match the reference exactly for lAoS records.
		if r.HasSym && strings.HasPrefix(r.Site.Var().Root, "lAoS") {
			if !g.HasSym || g.Site.Var().String() != r.Site.Var().String() {
				t.Fatalf("record %d: %q vs reference %q", i, g.Site.Var().String(), r.Site.Var().String())
			}
		}
	}
	// Address deltas within the transformed structure must match the AoS
	// layout: mY 8 bytes after mX, consecutive structs 16 bytes apart.
	addrOf := func(recs []trace.Record, v string) uint64 {
		for i := range recs {
			if recs[i].HasSym && recs[i].Site.Var().String() == v {
				return recs[i].Addr
			}
		}
		t.Fatalf("%s not found", v)
		return 0
	}
	x0 := addrOf(got, "lAoS[0].mX")
	y0 := addrOf(got, "lAoS[0].mY")
	x1 := addrOf(got, "lAoS[1].mX")
	if y0-x0 != 8 || x1-x0 != 16 {
		t.Errorf("layout deltas: mY-mX=%d struct stride=%d, want 8 and 16", y0-x0, x1-x0)
	}
	// Non-matching records (lI, zzq) pass through untouched.
	st := eng.Stats()
	if st.Matched != 32 { // 16 mX + 16 mY stores
		t.Errorf("matched = %d, want 32", st.Matched)
	}
	if st.Inserted != 0 {
		t.Errorf("inserted = %d", st.Inserted)
	}
	if st.Total != int64(len(orig)) {
		t.Errorf("total = %d", st.Total)
	}
}

// TestTrans1ReverseAoStoSoA checks the inverse direction (rules are
// one-directional, so this needs its own rule file).
func TestTrans1ReverseAoStoSoA(t *testing.T) {
	rule := mustRule(t, `
in:
struct lAoS {
	int mX;
	double mY;
}[16];
out:
struct lSoA {
	int mX[16];
	double mY[16];
};
`)
	orig := traceOf(t, workloads.Trans1AoS, map[string]string{"LEN": "16"})
	eng := mustEngine(t, rule)
	got, err := eng.TransformAll(orig)
	if err != nil {
		t.Fatal(err)
	}
	text := strings.Join(varStrings(got), "\n")
	for _, want := range []string{"lSoA.mX[0]", "lSoA.mY[15]"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q", want)
		}
	}
	if strings.Contains(text, "lAoS") {
		t.Error("lAoS survived the transformation")
	}
}

// TestTrans2Fig8 reproduces Figure 8: the nested-structure accesses become
// a pointer load plus a pool access.
func TestTrans2Fig8(t *testing.T) {
	orig := traceOf(t, workloads.Trans2Inline, map[string]string{"LEN": "16"})
	eng := mustEngine(t, mustRule(t, workloads.RuleTrans2))
	got, err := eng.TransformAll(orig)
	if err != nil {
		t.Fatal(err)
	}
	// 32 nested accesses (mY and mZ per element) each gain one load.
	if len(got) != len(orig)+32 {
		t.Fatalf("record count %d → %d, want +32", len(orig), len(got))
	}
	if eng.Stats().Inserted != 32 {
		t.Errorf("inserted = %d", eng.Stats().Inserted)
	}
	// Find the first transformed nested write: must be preceded by the
	// pointer load, exactly as the green lines of Fig 8.
	for i := 1; i < len(got); i++ {
		if got[i].HasSym && got[i].Site.Var().String() == "lStorageForRarelyUsed[0].mY" {
			prev := &got[i-1]
			if prev.Op != trace.Load || prev.Site.Var().String() != "lS2[0].mRarelyUsed" || prev.Size != 8 {
				t.Errorf("pointer load missing before pool access: %s", prev.String())
			}
			if got[i].Op != trace.Store || got[i].Size != 8 {
				t.Errorf("pool access = %s", got[i].String())
			}
			break
		}
	}
	text := strings.Join(varStrings(got), "\n")
	for _, want := range []string{
		"lS2[0].mFrequentlyUsed",
		"lS2[15].mRarelyUsed",
		"lStorageForRarelyUsed[15].mZ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q", want)
		}
	}
	if strings.Contains(text, "lS1") {
		t.Error("lS1 survived the transformation")
	}
	// The reference program's traced loop must produce the same op pattern:
	// compare against the hand-transformed Listing 7 trace.
	ref := traceOf(t, workloads.Trans2Outlined, map[string]string{"LEN": "16"})
	opsOf := func(recs []trace.Record) string {
		var b strings.Builder
		for i := range recs {
			b.WriteByte(byte(recs[i].Op))
		}
		return b.String()
	}
	if opsOf(got) != opsOf(ref) {
		t.Errorf("op sequence differs from hand-transformed reference\n got %s\n ref %s",
			opsOf(got), opsOf(ref))
	}
}

// TestTrans2Layout checks the out layout distances: the pool sits below the
// out structure on the stack, pool elements are 16 bytes apart.
func TestTrans2Layout(t *testing.T) {
	orig := traceOf(t, workloads.Trans2Inline, map[string]string{"LEN": "16"})
	eng := mustEngine(t, mustRule(t, workloads.RuleTrans2))
	got, err := eng.TransformAll(orig)
	if err != nil {
		t.Fatal(err)
	}
	var s2Base, poolBase uint64
	var ok1, ok2 bool
	s2Base, ok1 = eng.OutBase("lS2")
	poolBase, ok2 = eng.OutBase("lStorageForRarelyUsed")
	if !ok1 || !ok2 {
		t.Fatal("bases not assigned")
	}
	if poolBase >= s2Base {
		t.Errorf("pool at %#x not below lS2 at %#x (stack var)", poolBase, s2Base)
	}
	var y0, y1 uint64
	for i := range got {
		if got[i].HasSym {
			switch got[i].Site.Var().String() {
			case "lStorageForRarelyUsed[0].mY":
				y0 = got[i].Addr
			case "lStorageForRarelyUsed[1].mY":
				y1 = got[i].Addr
			}
		}
	}
	if y1-y0 != 16 {
		t.Errorf("pool element stride = %d, want 16", y1-y0)
	}
}

// TestTrans3Fig9 reproduces Figure 9: stride remap with injected
// index-arithmetic loads.
func TestTrans3Fig9(t *testing.T) {
	orig := traceOf(t, workloads.Trans3Contiguous, map[string]string{"LEN": "1024"})
	eng := mustEngine(t, mustRule(t, workloads.RuleTrans3))
	got, err := eng.TransformAll(orig)
	if err != nil {
		t.Fatal(err)
	}
	// Each of the 1024 stores gains 4 injected loads.
	if eng.Stats().Inserted != 4*1024 {
		t.Errorf("inserted = %d, want 4096", eng.Stats().Inserted)
	}
	// Inspect the first transformed store: preceded by ITEMSPERLINE and lI
	// loads, with lI reusing its real trace address.
	idx := -1
	for i := range got {
		if got[i].HasSym && got[i].Site.Var().String() == "lSetHashingArray[0]" {
			idx = i
			break
		}
	}
	if idx < 4 {
		t.Fatalf("transformed store not found (idx=%d)", idx)
	}
	names := []string{}
	for _, r := range got[idx-4 : idx] {
		names = append(names, r.Site.Var().Root)
		if r.Op != trace.Load {
			t.Errorf("injected op = %c", r.Op)
		}
	}
	wantNames := []string{"ITEMSPERLINE", "ITEMSPERLINE", "lI", "ITEMSPERLINE"}
	for i := range wantNames {
		if names[i] != wantNames[i] {
			t.Errorf("inject %d = %s, want %s", i, names[i], wantNames[i])
		}
	}
	// The injected lI load must reuse lI's true address.
	var liAddr uint64
	for i := range orig {
		if orig[i].HasSym && orig[i].Site.Var().Root == "lI" {
			liAddr = orig[i].Addr
			break
		}
	}
	if got[idx-2].Addr != liAddr {
		t.Errorf("injected lI at %#x, real lI at %#x", got[idx-2].Addr, liAddr)
	}
	// ITEMSPERLINE is synthetic but stable.
	if got[idx-4].Addr != got[idx-3].Addr {
		t.Error("synthetic ITEMSPERLINE address not stable")
	}

	// Index mapping: element 9 lands at formula position 129.
	for i := range got {
		if got[i].HasSym && got[i].Site.Var().Root == "lSetHashingArray" {
			j := got[i].Site.Var().Path[0].Index
			base, _ := eng.OutBase("lSetHashingArray")
			if got[i].Addr != base+uint64(j*4) {
				t.Fatalf("address %#x inconsistent with index %d", got[i].Addr, j)
			}
		}
	}
	text := strings.Join(varStrings(got), "\n")
	if !strings.Contains(text, "lSetHashingArray[129]") {
		t.Error("formula mapping for element 9 missing")
	}
	if strings.Contains(text, "lContiguousArray") {
		t.Error("lContiguousArray survived")
	}
}

// TestTrans3SetPinning: the transformed addresses must all fall in a single
// 32-byte window per 512 bytes — one cache set on the PPC440 geometry.
func TestTrans3SetPinning(t *testing.T) {
	orig := traceOf(t, workloads.Trans3Contiguous, map[string]string{"LEN": "1024"})
	eng := mustEngine(t, mustRule(t, workloads.RuleTrans3))
	got, err := eng.TransformAll(orig)
	if err != nil {
		t.Fatal(err)
	}
	sets := map[uint64]bool{}
	for i := range got {
		if got[i].HasSym && got[i].Site.Var().Root == "lSetHashingArray" {
			sets[(got[i].Addr>>5)&15] = true
		}
	}
	if len(sets) != 1 {
		t.Errorf("pinned accesses span %d sets, want 1 (auto-alignment failed)", len(sets))
	}
}

func TestUnmatchedNestingIgnored(t *testing.T) {
	// A record whose root matches but whose path does not conform must pass
	// through unchanged ("the simulator will simply ignore it").
	rule := mustRule(t, workloads.RuleTrans1)
	eng := mustEngine(t, rule)
	rec, err := trace.ParseRecord("S 7ff000390 4 main LS 0 1 lSoA.bogus[0]")
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.Transform(&rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || !out[0].Equal(&rec) {
		t.Errorf("non-conforming record altered: %+v", out)
	}
	if eng.Stats().Passed != 1 {
		t.Errorf("stats = %+v", eng.Stats())
	}
}

func TestWholeStructAccessIgnored(t *testing.T) {
	rule := mustRule(t, workloads.RuleTrans1)
	eng := mustEngine(t, rule)
	rec, _ := trace.ParseRecord("L 7ff000390 8 main LS 0 1 lSoA")
	out, err := eng.Transform(&rec)
	if err != nil || len(out) != 1 || !out[0].Equal(&rec) {
		t.Errorf("whole-struct access altered: %+v err=%v", out, err)
	}
}

func TestOneDirectionalRules(t *testing.T) {
	// A rule lSoA→lAoS must not touch lAoS records ("the mapping between an
	// in rule and an out rule is not bi-directional").
	eng := mustEngine(t, mustRule(t, workloads.RuleTrans1))
	rec, _ := trace.ParseRecord("S 7ff000350 4 main LS 0 1 lAoS[0].mX")
	out, err := eng.Transform(&rec)
	if err != nil || len(out) != 1 || !out[0].Equal(&rec) {
		t.Errorf("out-rule record rewritten: %+v err=%v", out, err)
	}
}

func TestMultipleRules(t *testing.T) {
	r1 := mustRule(t, workloads.RuleTrans1)
	r2 := mustRule(t, workloads.RuleTrans2)
	eng := mustEngine(t, r1, r2)
	s1, _ := trace.ParseRecord("S 7ff000390 4 main LS 0 1 lSoA.mX[0]")
	s2, _ := trace.ParseRecord("S 7ff000100 4 main LS 0 1 lS1[0].mFrequentlyUsed")
	o1, err1 := eng.Transform(&s1)
	o2, err2 := eng.Transform(&s2)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if o1[0].Site.Var().Root != "lAoS" || o2[0].Site.Var().Root != "lS2" {
		t.Errorf("multi-rule roots = %s, %s", o1[0].Site.Var().Root, o2[0].Site.Var().Root)
	}
}

func TestDuplicateRuleRoots(t *testing.T) {
	r := mustRule(t, workloads.RuleTrans1)
	if _, err := New(Options{}, r, r); err == nil {
		t.Error("duplicate roots accepted")
	}
}

func TestNoRules(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("empty engine accepted")
	}
}

func TestShadowAlignOption(t *testing.T) {
	eng, err := New(Options{ShadowAlign: 4096}, mustRule(t, workloads.RuleTrans1))
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := trace.ParseRecord("S 7ff000393 4 main LS 0 1 lSoA.mX[0]")
	if _, err := eng.Transform(&rec); err != nil {
		t.Fatal(err)
	}
	base, ok := eng.OutBase("lAoS")
	if !ok || base%4096 != 0 {
		t.Errorf("base %#x not 4096-aligned", base)
	}
}

func TestRunStreaming(t *testing.T) {
	res, err := tracer.Run(workloads.Trans1SoA, map[string]string{"LEN": "4"}, tracer.Options{PID: 11580})
	if err != nil {
		t.Fatal(err)
	}
	var in bytes.Buffer
	tw := trace.NewWriter(&in)
	if err := tw.WriteHeader(res.Header); err != nil {
		t.Fatal(err)
	}
	for i := range res.Records {
		if err := tw.Write(&res.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}

	eng := mustEngine(t, mustRule(t, workloads.RuleTrans1ForLen(4)))
	var out bytes.Buffer
	if err := eng.RunSource(trace.NewReader(&in), trace.NewWriter(&out)); err != nil {
		t.Fatal(err)
	}
	h, recs, err := trace.ParseAll(out.String())
	if err != nil {
		t.Fatal(err)
	}
	if h.PID != 11580 {
		t.Errorf("header pid = %d", h.PID)
	}
	if len(recs) != len(res.Records) {
		t.Errorf("streamed %d records, want %d", len(recs), len(res.Records))
	}
	if !strings.Contains(out.String(), "lAoS[0].mX") {
		t.Error("streamed output not transformed")
	}
}

// TestGlobalInVarPoolAbove: for globals, the outline pool is placed above
// the structure (data segment grows up).
func TestGlobalInVarPoolAbove(t *testing.T) {
	rule := mustRule(t, `
in:
struct mR { double y; int z; };
struct gS1 { int a; struct mR; }[4];
out:
struct pool { double y; int z; }[4];
struct gS2 { int a; * mR:pool; }[4];
`)
	eng := mustEngine(t, rule)
	rec, _ := trace.ParseRecord("S 000601040 4 main GS gS1[0].a")
	if _, err := eng.Transform(&rec); err != nil {
		t.Fatal(err)
	}
	s2, _ := eng.OutBase("gS2")
	pool, ok := eng.OutBase("pool")
	if !ok || pool <= s2 {
		t.Errorf("global pool at %#x not above gS2 at %#x", pool, s2)
	}
}

// Property-ish exhaustive check: every SoA element maps to the unique AoS
// address and no two distinct accesses collide.
func TestRemapBijective(t *testing.T) {
	eng := mustEngine(t, mustRule(t, workloads.RuleTrans1))
	seen := map[uint64]string{}
	for i := 0; i < 16; i++ {
		for _, f := range []string{"mX", "mY"} {
			line := "S 7ff000390 4 main LS 0 1 lSoA." + f + "[" + itoa(i) + "]"
			rec, err := trace.ParseRecord(line)
			if err != nil {
				t.Fatal(err)
			}
			// Give each element its true address: mX at +4i, mY at +64+8i.
			if f == "mX" {
				rec.Addr = 0x7ff000390 + uint64(4*i)
				rec.Size = 4
			} else {
				rec.Addr = 0x7ff000390 + 64 + uint64(8*i)
				rec.Size = 8
			}
			out, err := eng.Transform(&rec)
			if err != nil {
				t.Fatal(err)
			}
			got := out[len(out)-1]
			if prev, dup := seen[got.Addr]; dup {
				t.Fatalf("address collision: %s and %s at %#x", prev, got.Site.Var().String(), got.Addr)
			}
			seen[got.Addr] = got.Site.Var().String()
		}
	}
	if len(seen) != 32 {
		t.Errorf("mapped %d distinct addresses", len(seen))
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

// TestRunHeaderlessStaysHeaderless: a trace without a START line must not
// gain a synthetic zero header in the transformed output, or byte-level
// round trips through tracediff break.
func TestRunHeaderlessStaysHeaderless(t *testing.T) {
	in := strings.NewReader("S 7ff000393 4 main LS 0 1 lSoA.mX[0]\nL 7ff000393 4 main LS 0 1 lSoA.mX[0]\n")
	eng := mustEngine(t, mustRule(t, workloads.RuleTrans1ForLen(4)))
	var out bytes.Buffer
	if err := eng.RunSource(trace.NewReader(in), trace.NewWriter(&out)); err != nil {
		t.Fatal(err)
	}
	if strings.HasPrefix(out.String(), "START") {
		t.Errorf("headerless input gained a header:\n%s", out.String())
	}
	if n := len(strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")); n != 2 {
		t.Errorf("output has %d lines, want 2", n)
	}
}
