// Benchmarks regenerating every figure of the paper's evaluation (one
// benchmark per figure, Figures 3-11), plus component throughput and the
// ablation benchmarks called out in DESIGN.md §4. Run with:
//
//	go test -bench=. -benchmem
package tracedst_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"tracedst/internal/analysis"
	"tracedst/internal/cache"
	"tracedst/internal/dinero"
	"tracedst/internal/experiments"
	"tracedst/internal/pagemap"
	"tracedst/internal/profile"
	"tracedst/internal/rules"
	"tracedst/internal/trace"
	"tracedst/internal/tracediff"
	"tracedst/internal/tracer"
	"tracedst/internal/workloads"
	"tracedst/internal/xform"
)

// ---------------------------------------------------------------------------
// shared fixtures (traced once, reused across benchmark iterations)

type fixtures struct {
	t1Orig []trace.Record // SoA trace, LEN=16
	t2Orig []trace.Record // nested-struct trace, LEN=16
	t3Orig []trace.Record // contiguous-array trace, LEN=1024
	big    []trace.Record // larger matmul trace for throughput numbers
}

var (
	fixOnce sync.Once
	fix     fixtures
)

func load(b *testing.B) *fixtures {
	b.Helper()
	fixOnce.Do(func() {
		mustTrace := func(src string, defs map[string]string) []trace.Record {
			res, err := tracer.Run(src, defs, tracer.Options{})
			if err != nil {
				panic(err)
			}
			return res.Records
		}
		fix.t1Orig = mustTrace(workloads.Trans1SoA, map[string]string{"LEN": "16"})
		fix.t2Orig = mustTrace(workloads.Trans2Inline, map[string]string{"LEN": "16"})
		fix.t3Orig = mustTrace(workloads.Trans3Contiguous, map[string]string{"LEN": "1024"})
		fix.big = mustTrace(workloads.MatMul, map[string]string{"N": "24"})
	})
	return &fix
}

func mustRule(b *testing.B, src string) rules.Rule {
	b.Helper()
	r, err := rules.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

func runFigure(b *testing.B, id string) {
	b.Helper()
	var recs int
	for i := 0; i < b.N; i++ {
		rs, err := experiments.Figures(context.Background(), experiments.RunOptions{}, id)
		if err != nil {
			b.Fatal(err)
		}
		recs = rs[0].Records
	}
	b.ReportMetric(float64(recs), "trace-records")
}

// ---------------------------------------------------------------------------
// one benchmark per figure (full pipeline: trace → [transform] → simulate/diff)

// BenchmarkFig03_SoA regenerates Figure 3: the SoA program's per-set
// histogram on the 32 KB direct-mapped cache.
func BenchmarkFig03_SoA(b *testing.B) { runFigure(b, "fig3") }

// BenchmarkFig04_AoSTransformed regenerates Figure 4: the same trace after
// the Listing 5 SoA→AoS rule.
func BenchmarkFig04_AoSTransformed(b *testing.B) { runFigure(b, "fig4") }

// BenchmarkFig05_Trans1Diff regenerates Figure 5: the T1 trace diff.
func BenchmarkFig05_Trans1Diff(b *testing.B) { runFigure(b, "fig5") }

// BenchmarkFig06_Nested regenerates Figure 6: the inline nested-structure
// program's histogram.
func BenchmarkFig06_Nested(b *testing.B) { runFigure(b, "fig6") }

// BenchmarkFig07_OutlinedTransformed regenerates Figure 7: the outlined
// layout with its extra indirection loads.
func BenchmarkFig07_OutlinedTransformed(b *testing.B) { runFigure(b, "fig7") }

// BenchmarkFig08_Trans2Diff regenerates Figure 8: the T2 trace diff.
func BenchmarkFig08_Trans2Diff(b *testing.B) { runFigure(b, "fig8") }

// BenchmarkFig09_Trans3Diff regenerates Figure 9: the T3 (stride) diff with
// injected index arithmetic.
func BenchmarkFig09_Trans3Diff(b *testing.B) { runFigure(b, "fig9") }

// BenchmarkFig10_Contiguous regenerates Figure 10: the contiguous sweep on
// the PowerPC 440 geometry.
func BenchmarkFig10_Contiguous(b *testing.B) { runFigure(b, "fig10") }

// BenchmarkFig11_SetPinned regenerates Figure 11: the strided, set-pinned
// sweep on the PowerPC 440 geometry.
func BenchmarkFig11_SetPinned(b *testing.B) { runFigure(b, "fig11") }

// ---------------------------------------------------------------------------
// component throughput

// BenchmarkTracerListing1 measures tracing throughput (the Gleipnir role):
// interpret + annotate the paper's Listing 1.
func BenchmarkTracerListing1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := tracer.Run(workloads.Listing1, nil, tracer.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTracerMatMul measures tracing a denser kernel and reports
// records/op.
func BenchmarkTracerMatMul(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		res, err := tracer.Run(workloads.MatMul, map[string]string{"N": "24"}, tracer.Options{})
		if err != nil {
			b.Fatal(err)
		}
		n = len(res.Records)
	}
	b.ReportMetric(float64(n), "trace-records")
}

// BenchmarkTraceParse measures trace-file parsing throughput.
func BenchmarkTraceParse(b *testing.B) {
	f := load(b)
	text := trace.Format(trace.Header{PID: 1}, f.big)
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := trace.ParseAll(text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceFormat measures trace-file rendering throughput.
func BenchmarkTraceFormat(b *testing.B) {
	f := load(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = trace.Format(trace.Header{PID: 1}, f.big)
	}
}

// BenchmarkCacheAccess measures the raw simulator datapath.
func BenchmarkCacheAccess(b *testing.B) {
	c, err := cache.New(cache.Paper32KDirect(), nil)
	if err != nil {
		b.Fatal(err)
	}
	var buf []cache.Outcome
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = c.Access(cache.Read, uint64(i*64), 4, 1, buf[:0])
	}
}

// BenchmarkSimulateMatMul measures full dinero simulation throughput with
// per-variable attribution.
func BenchmarkSimulateMatMul(b *testing.B) {
	f := load(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := dinero.New(dinero.Options{L1: cache.Paper32KDirect()})
		if err != nil {
			b.Fatal(err)
		}
		sim.Process(f.big)
	}
	b.ReportMetric(float64(len(f.big)), "trace-records")
}

// BenchmarkXformT1 measures transformation throughput for the remap rule.
func BenchmarkXformT1(b *testing.B) {
	f := load(b)
	rule := mustRule(b, workloads.RuleTrans1ForLen(16))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := xform.New(xform.Options{}, rule)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.TransformAll(f.t1Orig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXformT3 measures the stride rule (formula evaluation + injected
// records) on the 1024-element trace.
func BenchmarkXformT3(b *testing.B) {
	f := load(b)
	rule := mustRule(b, workloads.RuleTrans3ForLen(1024, 16, 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := xform.New(xform.Options{}, rule)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.TransformAll(f.t3Orig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceDiff measures the Myers alignment on the largest figure
// diff (T3: ~7k vs ~12k records).
func BenchmarkTraceDiff(b *testing.B) {
	f := load(b)
	rule := mustRule(b, workloads.RuleTrans3ForLen(1024, 16, 8))
	eng, err := xform.New(xform.Options{}, rule)
	if err != nil {
		b.Fatal(err)
	}
	transformed, err := eng.TransformAll(f.t3Orig)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := tracediff.New(f.t3Orig, transformed)
		if d.Stats().Rewritten == 0 {
			b.Fatal("empty diff")
		}
	}
}

// BenchmarkReuseDistances measures the Fenwick-tree stack-distance profiler
// on the matmul trace.
func BenchmarkReuseDistances(b *testing.B) {
	f := load(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := analysis.ReuseDistances(f.big, 32)
		if r.Accesses == 0 {
			b.Fatal("empty profile")
		}
	}
	b.ReportMetric(float64(len(f.big)), "trace-records")
}

// BenchmarkProfile measures the memory-profile pass.
func BenchmarkProfile(b *testing.B) {
	f := load(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := profile.New(f.big)
		if p.WorkingSet == 0 {
			b.Fatal("empty profile")
		}
	}
}

// BenchmarkTimeline measures the windowed miss-rate pass.
func BenchmarkTimeline(b *testing.B) {
	f := load(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl, err := analysis.MissTimeline(f.big, cache.Paper32KDirect(), 1024)
		if err != nil || len(tl.Points) == 0 {
			b.Fatal(err)
		}
	}
}

// BenchmarkPagemapTranslate measures virtual→physical translation.
func BenchmarkPagemapTranslate(b *testing.B) {
	for _, pol := range []pagemap.Policy{pagemap.Sequential, pagemap.Shuffled} {
		b.Run(pol.String(), func(b *testing.B) {
			m := pagemap.New(pagemap.Config{Policy: pol, Seed: 1})
			for i := 0; i < b.N; i++ {
				// Cycle through 64 Ki pages so the frame space never
				// exhausts however large b.N grows.
				addr := uint64(i%(1<<20)) << 6
				if _, err := m.Translate(addr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkXformPeel measures the structure-peeling rule.
func BenchmarkXformPeel(b *testing.B) {
	res, err := tracer.Run(`
typedef struct { int hot; double cold1; double cold2; } Rec;
Rec lRec[64];
int main(void) {
	int sum;
	GLEIPNIR_START_INSTRUMENTATION;
	sum = 0;
	for (int i = 0; i < 64; i++) sum += lRec[i].hot;
	GLEIPNIR_STOP_INSTRUMENTATION;
	return sum;
}`, nil, tracer.Options{})
	if err != nil {
		b.Fatal(err)
	}
	rule := mustRule(b, `
in:
struct lRec { int hot; double cold1; double cold2; }[64];
out:
struct lHot { int hot; }[64];
struct lCold { double cold1; double cold2; }[64];
`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := xform.New(xform.Options{}, rule)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.TransformAll(res.Records); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// ablations (DESIGN.md §4)

// BenchmarkAblationStreamingXform contrasts the paper's line-at-a-time
// processing with whole-slice batching (same work, different call shape).
func BenchmarkAblationStreamingXform(b *testing.B) {
	f := load(b)
	rule := mustRule(b, workloads.RuleTrans3ForLen(1024, 16, 8))
	b.Run("streaming", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng, _ := xform.New(xform.Options{}, rule)
			n := 0
			for j := range f.t3Orig {
				out, err := eng.Transform(&f.t3Orig[j])
				if err != nil {
					b.Fatal(err)
				}
				n += len(out)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng, _ := xform.New(xform.Options{}, rule)
			if _, err := eng.TransformAll(f.t3Orig); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationAttribution measures the cost of the "modified DineroIV"
// function/variable attribution versus the bare cache datapath.
func BenchmarkAblationAttribution(b *testing.B) {
	f := load(b)
	b.Run("bare-cache", func(b *testing.B) {
		var buf []cache.Outcome
		for i := 0; i < b.N; i++ {
			c, _ := cache.New(cache.Paper32KDirect(), nil)
			for j := range f.big {
				r := &f.big[j]
				if r.Op == trace.Misc {
					continue
				}
				buf = c.Access(cache.Read, r.Addr, r.Size, cache.NoOwner, buf[:0])
			}
		}
	})
	b.Run("attributed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim, _ := dinero.New(dinero.Options{L1: cache.Paper32KDirect()})
			sim.Process(f.big)
		}
	})
}

// BenchmarkAblationReplacement compares replacement policies on an
// 8-way cache driven by the matmul trace.
func BenchmarkAblationReplacement(b *testing.B) {
	f := load(b)
	for _, repl := range []cache.ReplPolicy{cache.ReplLRU, cache.ReplFIFO, cache.ReplRandom, cache.ReplRoundRobin} {
		b.Run(strings.ReplaceAll(repl.String(), "-", ""), func(b *testing.B) {
			cfg := cache.Config{Size: 8 * 1024, BlockSize: 32, Assoc: 8, Repl: repl}
			var misses int64
			for i := 0; i < b.N; i++ {
				sim, err := dinero.New(dinero.Options{L1: cfg})
				if err != nil {
					b.Fatal(err)
				}
				sim.Process(f.big)
				misses = sim.L1().Stats().Misses()
			}
			b.ReportMetric(float64(misses), "misses")
		})
	}
}

// BenchmarkAblationPrefetch compares sequential-prefetch policies on the
// matmul trace (misses reported per policy).
func BenchmarkAblationPrefetch(b *testing.B) {
	f := load(b)
	for _, pf := range []cache.PrefetchPolicy{cache.PrefetchNone, cache.PrefetchMiss, cache.PrefetchAlways} {
		b.Run(pf.String(), func(b *testing.B) {
			cfg := cache.Paper32KDirect()
			cfg.Prefetch = pf
			var misses int64
			for i := 0; i < b.N; i++ {
				sim, err := dinero.New(dinero.Options{L1: cfg})
				if err != nil {
					b.Fatal(err)
				}
				sim.Process(f.big)
				misses = sim.L1().Stats().Misses()
			}
			b.ReportMetric(float64(misses), "misses")
		})
	}
}

// BenchmarkAblationMissClassification measures the three-C shadow
// directory's overhead.
func BenchmarkAblationMissClassification(b *testing.B) {
	f := load(b)
	for _, classify := range []bool{false, true} {
		b.Run(fmt.Sprintf("classify=%v", classify), func(b *testing.B) {
			cfg := cache.Paper32KDirect()
			cfg.ClassifyMisses = classify
			for i := 0; i < b.N; i++ {
				sim, err := dinero.New(dinero.Options{L1: cfg})
				if err != nil {
					b.Fatal(err)
				}
				sim.Process(f.big)
			}
		})
	}
}
