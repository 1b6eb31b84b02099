// Golden equivalence suite for the single-pass multi-configuration
// engine: for every built-in workload, MultiSim reports must be
// byte-identical to independent Simulator runs, whichever container
// format the trace travelled through (text or binary) and however it was
// decoded (serial or parallel). The sampling tiers are approximate by
// design; their error is measured here and pinned to the bounds
// documented in docs/performance.md.
package tracedst_test

import (
	"bytes"
	"math"
	"runtime"
	"sort"
	"testing"

	"tracedst/internal/cache"
	"tracedst/internal/dinero"
	"tracedst/internal/trace"
	"tracedst/internal/tracer"
	"tracedst/internal/workloads"
)

// goldenConfigs spans the kernel envelope: direct-mapped, set-associative
// LRU, and the paper's 64-way round-robin geometry.
var goldenConfigs = []cache.Config{
	{Name: "dm-4k", Size: 4096, BlockSize: 32, Assoc: 1, Repl: cache.ReplLRU},
	{Name: "lru-8k-2w", Size: 8192, BlockSize: 32, Assoc: 2, Repl: cache.ReplLRU},
	{Name: "rr-32k-64w", Size: 32768, BlockSize: 32, Assoc: 64, Repl: cache.ReplRoundRobin},
}

// sortedWorkloads returns every built-in workload name in stable order.
func sortedWorkloads() []string {
	names := make([]string, 0, len(workloads.Named))
	for name := range workloads.Named {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func traceWorkload(t *testing.T, name string) []trace.Record {
	t.Helper()
	wl := workloads.Named[name]
	res, err := tracer.Run(wl.Source, wl.Defines, tracer.Options{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res.Records
}

func encodeTrace(t *testing.T, recs []trace.Record, format trace.FileFormat) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriterFormat(&buf, format)
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMultiSimGoldenAllWorkloads is the exact-mode acceptance matrix:
// all 15 workloads × {text, binary} container × {serial, parallel}
// decode, every config's MultiSim report byte-identical to an
// independent single-config Simulator run over the same records.
func TestMultiSimGoldenAllWorkloads(t *testing.T) {
	formats := []struct {
		name string
		f    trace.FileFormat
	}{{"text", trace.FormatText}, {"binary", trace.FormatBinary}}
	for _, name := range sortedWorkloads() {
		recs := traceWorkload(t, name)

		want := make([]string, len(goldenConfigs))
		for i, cfg := range goldenConfigs {
			sim, err := dinero.New(dinero.Options{L1: cfg})
			if err != nil {
				t.Fatal(err)
			}
			sim.Process(recs)
			want[i] = sim.Report()
		}

		for _, fm := range formats {
			data := encodeTrace(t, recs, fm.f)
			for _, workers := range []int{1, 4} {
				_, _, got, err := trace.DecodeBytes(data, trace.DecodeOptions{}, workers)
				if err != nil {
					t.Fatalf("%s/%s/workers=%d: %v", name, fm.name, workers, err)
				}
				if len(got) != len(recs) {
					t.Fatalf("%s/%s/workers=%d: %d records decoded, want %d",
						name, fm.name, workers, len(got), len(recs))
				}
				ms, err := dinero.NewMulti(dinero.MultiOptions{Configs: goldenConfigs})
				if err != nil {
					t.Fatal(err)
				}
				ms.Process(got)
				for i, cfg := range goldenConfigs {
					if rep := ms.Report(i); rep != want[i] {
						t.Errorf("%s/%s/workers=%d config %s: multi-config report diverges from serial run:\n--- want ---\n%s\n--- got ---\n%s",
							name, fm.name, workers, cfg.Name, want[i], rep)
					}
				}
			}
		}
	}
}

// Sampling error bound asserted below and documented in
// docs/performance.md. The guaranteed quantity is the scaled total MISS
// COUNT — what the sweep engine consumes. Miss-ratio extrapolation is
// deliberately not bounded. The bound only holds where the exact signal
// is large enough for the tier's constant bias sources not to dominate:
// at least minMissesForBound exact misses, and an exact miss ratio of at
// least minRatioForBound (below that, interval sampling's cold-resume
// refills outweigh the real misses — measured 2.5× on matmul at ratio
// 0.003).
const (
	minMissesForBound = 100
	minRatioForBound  = 0.01
	intervalBound     = 0.30 // |Δ misses| / exact misses, every 4th 4096-record window (worst measured 0.23)
)

// TestMultiSimSamplingErrorBounds measures interval sampling against
// exact runs on every workload and asserts the documented miss-count
// bound wherever the exact run produced a statistically meaningful
// number of misses.
func TestMultiSimSamplingErrorBounds(t *testing.T) {
	tiers := []struct {
		name  string
		sm    dinero.Sampling
		bound float64
	}{
		{"interval-sampling", dinero.Sampling{Interval: 4}, intervalBound},
	}
	worst := map[string]float64{}
	asserted := 0
	for _, name := range sortedWorkloads() {
		recs := traceWorkload(t, name)
		exact, err := dinero.NewMulti(dinero.MultiOptions{Configs: goldenConfigs, StatsOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		exact.Process(recs)

		for _, tier := range tiers {
			ms, err := dinero.NewMulti(dinero.MultiOptions{
				Configs: goldenConfigs, Sampling: tier.sm, StatsOnly: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			ms.Process(recs)
			for i, cfg := range goldenConfigs {
				ex := exact.Stats(i)
				if ex.Misses() < minMissesForBound || ex.MissRatio() < minRatioForBound {
					continue
				}
				est := ms.ScaledStats(i)
				relErr := math.Abs(float64(est.Misses()-ex.Misses())) / float64(ex.Misses())
				if relErr > worst[tier.name] {
					worst[tier.name] = relErr
				}
				asserted++
				if relErr > tier.bound {
					t.Errorf("%s %s config %s: miss-count rel. error %.4f exceeds bound %.2f (exact %d, sampled estimate %d)",
						name, tier.name, cfg.Name, relErr, tier.bound, ex.Misses(), est.Misses())
				}
			}
		}
	}
	if asserted == 0 {
		t.Fatal("no workload/config pair reached the assertion threshold")
	}
	for _, tier := range tiers {
		t.Logf("%s: worst miss-count relative error %.4f over %d asserted pairs (bound %.2f)",
			tier.name, worst[tier.name], asserted, tier.bound)
	}
}

// TestMultiSimReportAllocs: a report is rendered into one buffer sized
// from its tables, so rendering each golden config's report over a trace
// of every workload allocates at most a quarter more than the report's
// own bytes (the first render also makes the storage its tables are
// sorted into, which later renders reuse). TotalAlloc counts every
// goroutine's allocations, so the least of five renders is taken.
func TestMultiSimReportAllocs(t *testing.T) {
	var recs []trace.Record
	for _, name := range sortedWorkloads() {
		recs = append(recs, traceWorkload(t, name)...)
	}
	ms, err := dinero.NewMulti(dinero.MultiOptions{Configs: goldenConfigs})
	if err != nil {
		t.Fatal(err)
	}
	ms.Process(recs)
	for i, cfg := range goldenConfigs {
		var rep string
		least := uint64(math.MaxUint64)
		for k := 0; k < 5; k++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rep = ms.Report(i)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if float64(least) > 1.25*float64(len(rep)) {
			t.Errorf("%s: rendering a %d-byte report allocated %d bytes (%.2f×), want ≤ 1.25×",
				cfg.Name, len(rep), least, float64(least)/float64(len(rep)))
		}
	}
}
