package xform

import (
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"tracedst/internal/cache"
	"tracedst/internal/ctype"
	"tracedst/internal/dinero"
	"tracedst/internal/rules"
	"tracedst/internal/slab"
	"tracedst/internal/trace"
	"tracedst/internal/workloads"
)

// viaTransform runs recs through the per-record API.
func viaTransform(e *Engine, recs []trace.Record) ([]trace.Record, error) {
	var out []trace.Record
	for i := range recs {
		rs, err := e.Transform(&recs[i])
		if err != nil {
			return nil, err
		}
		out = append(out, rs...)
	}
	return out, nil
}

// viaSource drains recs through Engine.Source in small batches, so batch
// boundaries fall inside the trace.
func viaSource(e *Engine, recs []trace.Record) ([]trace.Record, error) {
	return trace.ReadSource(e.Source(trace.NewSliceSource(trace.Header{}, false, recs, 7)))
}

// withNonConforming returns recs with a whole-object access to the rule's
// in root spliced into the middle: its root matches, its nesting does not,
// so every engine must pass it through unchanged.
func withNonConforming(t *testing.T, recs []trace.Record, root string) []trace.Record {
	t.Helper()
	for i := range recs {
		if recs[i].HasSym && recs[i].Site.Var().Root == root {
			bogus := recs[i]
			bogus.Site = trace.NewSite(bogus.Site.Func(), ctype.AccessExpr{Root: root})
			out := append([]trace.Record{}, recs[:len(recs)/2]...)
			out = append(out, bogus)
			return append(out, recs[len(recs)/2:]...)
		}
	}
	t.Fatalf("no %s record in the trace", root)
	return nil
}

// TestBatchPathsAgree: TransformAll, Source and the per-record Transform
// emit identical records and identical Stats for every rule kind.
func TestBatchPathsAgree(t *testing.T) {
	cases := []struct {
		name, src, rule string
		defs            map[string]string
	}{
		{"remap", workloads.Trans1SoA, workloads.RuleTrans1, map[string]string{"LEN": "16"}},
		{"outline", workloads.Trans2Inline, workloads.RuleTrans2, map[string]string{"LEN": "16"}},
		{"stride", workloads.Trans3Contiguous, workloads.RuleTrans3, map[string]string{"LEN": "1024"}},
		{"peel", peelProgram, peelRule, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rule := mustRule(t, c.rule)
			orig := withNonConforming(t, traceOf(t, c.src, c.defs), rule.InRoot())
			var outs [3][]trace.Record
			var stats [3]Stats
			for k, run := range []func(*Engine, []trace.Record) ([]trace.Record, error){
				(*Engine).TransformAll, viaSource, viaTransform,
			} {
				eng := mustEngine(t, rule)
				out, err := run(eng, orig)
				if err != nil {
					t.Fatal(err)
				}
				outs[k], stats[k] = out, eng.Stats()
			}
			if stats[0].Matched == 0 || stats[0].Passed == 0 {
				t.Fatalf("stats %+v: the trace must exercise both rewrite and pass-through", stats[0])
			}
			for k, name := range []string{"Source", "Transform"} {
				if !reflect.DeepEqual(outs[k+1], outs[0]) {
					t.Errorf("%s output differs from TransformAll", name)
				}
				if stats[k+1] != stats[0] {
					t.Errorf("%s stats %+v, TransformAll %+v", name, stats[k+1], stats[0])
				}
			}
		})
	}
}

// TestRewrittenRecordsCarryNoStaleIDs: a transformed trace shares with
// the original the sites of the records xform leaves alone, and takes
// sites of the engine's for those it rewrites or injects; a simulator
// resolves each site's ids once and memoizes them by site. A simulator
// that runs the transformed trace on the state of one released after the
// original must report exactly what a run over the transformed trace's
// text reports, where every name is parsed afresh: no record may be
// attributed through ids resolved for another site or another run.
func TestRewrittenRecordsCarryNoStaleIDs(t *testing.T) {
	cases := []struct {
		name, src, rule string
		defs            map[string]string
	}{
		{"remap", workloads.Trans1SoA, workloads.RuleTrans1ForLen(64), map[string]string{"LEN": "64"}},
		{"outline", workloads.Trans2Inline, workloads.RuleTrans2, map[string]string{"LEN": "16"}},
		{"stride", workloads.Trans3Contiguous, workloads.RuleTrans3, map[string]string{"LEN": "1024"}},
		{"peel", peelProgram, peelRule, nil},
	}
	report := func(t *testing.T, recs []trace.Record) string {
		t.Helper()
		ms, err := dinero.NewMulti(dinero.MultiOptions{Configs: []cache.Config{cache.Paper32KDirect()}})
		if err != nil {
			t.Fatal(err)
		}
		defer ms.Release()
		ms.Process(recs)
		return ms.Report(0)
	}
	reparsed := func(t *testing.T, recs []trace.Record) []trace.Record {
		t.Helper()
		out := make([]trace.Record, len(recs))
		for i := range recs {
			r, err := trace.ParseRecord(recs[i].String())
			if err != nil {
				t.Fatal(err)
			}
			out[i] = r
		}
		return out
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			orig := traceOf(t, c.src, c.defs)
			for _, p := range []struct {
				name string
				run  func(*Engine, []trace.Record) ([]trace.Record, error)
			}{{"TransformAll", (*Engine).TransformAll}, {"Source", viaSource}} {
				out, err := p.run(mustEngine(t, mustRule(t, c.rule)), orig)
				if err != nil {
					t.Fatal(err)
				}
				report(t, orig)
				if got, want := report(t, out), report(t, reparsed(t, out)); got != want {
					t.Errorf("%s: report over shared sites differs from one over parsed names:\n--- sites ---\n%s\n--- parsed ---\n%s",
						p.name, got, want)
				}
			}
		})
	}
}

// TestBatchPathsDivisionByZero: a stride formula that divides by zero at
// one index stops every path at that record with the formula's error.
func TestBatchPathsDivisionByZero(t *testing.T) {
	f, err := rules.ParseFormula("i/(i-3)")
	if err != nil {
		t.Fatal(err)
	}
	rule := &rules.StrideRule{InVar: "lA", Elem: ctype.Int, InLen: 8, OutVar: "lB", OutLen: 8, Formula: f}
	var recs []trace.Record
	for i := int64(0); i < 8; i++ {
		recs = append(recs, trace.Record{
			Op: trace.Store, Addr: 0x7ff000300 + uint64(4*i), Size: 4, Site: trace.NewLocalSite("main", ctype.AccessExpr{Root: "lA", Path: ctype.Path{{Index: i}}}, 0, 1),
			HasSym: true, Vis: trace.Local, Aggregate: true,
		})
	}
	var errs [3]error
	var stats [3]Stats
	for k, run := range []func(*Engine, []trace.Record) ([]trace.Record, error){
		(*Engine).TransformAll, viaSource, viaTransform,
	} {
		eng := mustEngine(t, rule)
		out, err := run(eng, recs)
		if err == nil || (k != 1 && out != nil) {
			t.Fatalf("path %d: out=%d records err=%v, want nil and an error", k, len(out), err)
		}
		errs[k], stats[k] = err, eng.Stats()
	}
	want := Stats{Total: 4, Matched: 3}
	for k := range errs {
		if errs[k].Error() != errs[0].Error() || stats[k] != want {
			t.Errorf("path %d: err=%v stats=%+v, want %v and %+v", k, errs[k], stats[k], errs[0], want)
		}
	}
}

// TestOversizedAccessIsAnError: a record holds sizes up to 2 GiB - 1, so
// a stride rule whose element is larger stops the transform with an error
// instead of emitting a truncated size, and an inject that large is
// refused when the engine is built.
func TestOversizedAccessIsAnError(t *testing.T) {
	f, err := rules.ParseFormula("i")
	if err != nil {
		t.Fatal(err)
	}
	big := ctype.NewArray(ctype.Char, trace.MaxSize+1)
	rule := &rules.StrideRule{InVar: "lA", Elem: big, InLen: 2, OutVar: "lB", OutLen: 2, Formula: f}
	rec := trace.Record{
		Op: trace.Load, Addr: 0x7ff000300, Size: 1, Site: trace.NewLocalSite("main", ctype.AccessExpr{Root: "lA", Path: ctype.Path{{Index: 0}}}, 0, 1),
		HasSym: true, Vis: trace.Local, Aggregate: true,
	}
	for k, run := range []func(*Engine, []trace.Record) ([]trace.Record, error){
		(*Engine).TransformAll, viaSource, viaTransform,
	} {
		if out, err := run(mustEngine(t, rule), []trace.Record{rec}); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("path %d: %d records, err %v; want a size error", k, len(out), err)
		}
	}

	inject := mustRule(t, strings.Replace(workloads.RuleTrans3, "L lI;", "L lI 2147483648;", 1))
	if _, err := New(Options{}, inject); err == nil || !strings.Contains(err.Error(), "2147483648-byte") {
		t.Errorf("New with a 2 GiB inject: err %v, want a size error", err)
	}
}

// TestEmittedPathsIsolated: rewritten paths are carved from one slab, but
// each is capped at its length, so appending to one record's path
// reallocates instead of writing into its neighbour's.
func TestEmittedPathsIsolated(t *testing.T) {
	orig := traceOf(t, workloads.Trans1SoA, map[string]string{"LEN": "16"})
	eng := mustEngine(t, mustRule(t, workloads.RuleTrans1))
	got, err := eng.TransformAll(orig)
	if err != nil {
		t.Fatal(err)
	}
	var rewritten []*trace.Record
	for i := range got {
		if got[i].HasSym && got[i].Site.Var().Root == "lAoS" {
			rewritten = append(rewritten, &got[i])
		}
	}
	if len(rewritten) < 2 {
		t.Fatalf("only %d rewritten records", len(rewritten))
	}
	for i := 0; i+1 < len(rewritten); i++ {
		p, next := rewritten[i].Site.Var().Path, rewritten[i+1].Site.Var().Path
		if cap(p) != len(p) {
			t.Fatalf("%s: path cap %d > len %d", rewritten[i].Site.Var(), cap(p), len(p))
		}
		before := next.String()
		_ = append(p, ctype.PathElem{Field: "clobber"}, ctype.PathElem{Index: 99})
		if next.String() != before {
			t.Fatalf("appending to %s changed its neighbour to %s", rewritten[i].Site.Var(), next)
		}
	}
}

// carvedElems counts the path elements the engine carved for out: those of
// records rewritten onto root.
func carvedElems(out []trace.Record, root string) int {
	n := 0
	for i := range out {
		if out[i].HasSym && out[i].Site.Var().Root == root {
			n += len(out[i].Site.Var().Path)
		}
	}
	return n
}

// TestTransformAllAllocs: a warmed engine's TransformAll allocates its
// one output slice (sized up front, never regrown) plus one slab per 4096
// carved path elements.
func TestTransformAllAllocs(t *testing.T) {
	for _, c := range []struct {
		name, src, rule, root string
		defs                  map[string]string
	}{
		// 8192 two-element paths: slabs are refilled mid-call.
		{"remap", workloads.Trans1SoA, workloads.RuleTrans1ForLen(4096), "lAoS", map[string]string{"LEN": "4096"}},
		// Four injects per store: the output outgrows the input by 4×.
		{"stride", workloads.Trans3Contiguous, workloads.RuleTrans3, "lSetHashingArray", map[string]string{"LEN": "1024"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			orig := traceOf(t, c.src, c.defs)
			eng := mustEngine(t, mustRule(t, c.rule))
			out, err := eng.TransformAll(orig)
			if err != nil {
				t.Fatal(err)
			}
			if cap(out) != eng.outBound(orig) {
				t.Errorf("output cap %d, bound %d: the slice regrew", cap(out), eng.outBound(orig))
			}
			elems := carvedElems(out, c.root)
			slabs := (elems + slab.MaxChunk - 1) / slab.MaxChunk
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := eng.TransformAll(orig); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > float64(1+slabs) {
				t.Errorf("TransformAll: %.0f allocations, want ≤ 1 output slice + %d slabs (%d path elements)", allocs, slabs, elems)
			}
		})
	}
}

// loopSource hands out the same batch forever.
type loopSource struct{ batch []trace.Record }

func (s *loopSource) Header() (trace.Header, error)      { return trace.Header{}, nil }
func (s *loopSource) HasHeader() bool                    { return false }
func (s *loopSource) BadLines() int                      { return 0 }
func (s *loopSource) NextBatch() ([]trace.Record, error) { return s.batch, nil }

// TestSourceSteadyStateAllocs: once its buffer fits the batch, Source
// allocates nothing per NextBatch but the path slabs it fills.
func TestSourceSteadyStateAllocs(t *testing.T) {
	orig := traceOf(t, workloads.Trans3Contiguous, map[string]string{"LEN": "1024"})
	eng := mustEngine(t, mustRule(t, workloads.RuleTrans3))
	xs := eng.Source(&loopSource{batch: orig[:512]})
	warm, err := xs.NextBatch()
	if err != nil {
		t.Fatal(err)
	}
	elems := carvedElems(warm, "lSetHashingArray")
	if elems == 0 {
		t.Fatal("batch rewrites nothing")
	}
	const calls = 64
	// The slab boundary may fall on either side of the window: +1.
	slabs := (calls*elems+slab.MaxChunk-1)/slab.MaxChunk + 1
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < calls; i++ {
			if _, err := xs.NextBatch(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > float64(slabs) {
		t.Errorf("%d NextBatch calls: %.0f allocations, want ≤ %d slab refills (%d path elements each)", calls, allocs, slabs, elems)
	}
}

// TestSourceEOFAndErrors: Source forwards the end of stream and the
// source's sticky errors unchanged.
func TestSourceEOFAndErrors(t *testing.T) {
	eng := mustEngine(t, mustRule(t, workloads.RuleTrans1))
	xs := eng.Source(trace.NewSliceSource(trace.Header{PID: 7}, true, nil, 0))
	if h, err := xs.Header(); err != nil || h.PID != 7 || !xs.HasHeader() {
		t.Errorf("header %+v err=%v has=%v", h, err, xs.HasHeader())
	}
	if b, err := xs.NextBatch(); b != nil || err != io.EOF {
		t.Errorf("empty source: %d records, err=%v", len(b), err)
	}
	boom := errors.New("boom")
	xs = eng.Source(&errSource{err: boom})
	if b, err := xs.NextBatch(); b != nil || !errors.Is(err, boom) {
		t.Errorf("failing source: %d records, err=%v", len(b), err)
	}
}

type errSource struct {
	loopSource
	err error
}

func (s *errSource) NextBatch() ([]trace.Record, error) { return nil, s.err }
