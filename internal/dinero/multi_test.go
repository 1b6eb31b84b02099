package dinero

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"tracedst/internal/cache"
	"tracedst/internal/trace"
)

// multiRecords builds a mixed synthetic trace: loads, stores and modifies
// over strided arrays with nosym gaps — the same shape as benchRecords but
// exercising every op the simulator dispatches.
func multiRecords(n, nvars int) []trace.Record {
	recs := benchRecords(n, nvars)
	for i := range recs {
		switch i % 5 {
		case 1:
			recs[i].Op = trace.Store
		case 3:
			recs[i].Op = trace.Modify
		}
		if i%97 == 0 {
			recs[i].Size = 40 // block-spanning
		}
	}
	return recs
}

// multiTestConfigs mixes fast-kernel geometries with a fallback config
// (miss classification forces the full Simulator path).
func multiTestConfigs() []cache.Config {
	return []cache.Config{
		{Size: 1024, BlockSize: 32, Assoc: 1},
		{Size: 8192, BlockSize: 32, Assoc: 2, Repl: cache.ReplLRU},
		{Size: 4096, BlockSize: 32, Assoc: 64, Repl: cache.ReplRoundRobin},
		{Size: 2048, BlockSize: 32, Assoc: 2, ClassifyMisses: true}, // fallback
		{Size: 4096, BlockSize: 64, Assoc: 4, Repl: cache.ReplFIFO, Write: cache.WriteThrough},
	}
}

// TestMultiSimReportsMatchSerial is the core exactness contract: one
// multi-config pass must produce, for every configuration, a report
// byte-identical to an independent Simulator run.
func TestMultiSimReportsMatchSerial(t *testing.T) {
	cfgs := multiTestConfigs()
	recs := multiRecords(30000, 16)
	ms, err := NewMulti(MultiOptions{Configs: cfgs})
	if err != nil {
		t.Fatal(err)
	}
	ms.Process(recs)
	for i, cfg := range cfgs {
		ref, err := New(Options{L1: cfg})
		if err != nil {
			t.Fatal(err)
		}
		ref.Process(recs)
		if got, want := ms.Report(i), ref.Report(); got != want {
			t.Errorf("config %d (%+v): multi report != serial report\n--- multi ---\n%s\n--- serial ---\n%s",
				i, cfg, got, want)
		}
		if got, want := ms.Stats(i), ref.L1().Stats(); got.Misses() != want.Misses() || got.Accesses() != want.Accesses() {
			t.Errorf("config %d: stats diverge (multi %d/%d, serial %d/%d)",
				i, got.Misses(), got.Accesses(), want.Misses(), want.Accesses())
		}
	}
	if ms.Records() != int64(len(recs)) || ms.SimulatedRecords() != int64(len(recs)) {
		t.Errorf("records %d simulated %d, want %d", ms.Records(), ms.SimulatedRecords(), len(recs))
	}
}

// TestOneFrontEnd pins the one-front-end contract: every config takes its
// access from one resolution, whichever engine runs it, and StatsOnly
// skips attribution on both engines.
func TestOneFrontEnd(t *testing.T) {
	recs := multiRecords(1000, 16)
	var accesses int
	for _, r := range recs {
		switch r.Op {
		case trace.Load, trace.Store:
			accesses++
		case trace.Modify:
			accesses += 2
		}
	}
	// With L2 set every config runs on cache.Cache levels; the address is
	// still translated once per access, not once per config.
	l2 := cache.Config{Size: 32768, BlockSize: 64, Assoc: 4, Repl: cache.ReplLRU}
	calls := 0
	ms, err := NewMulti(MultiOptions{Configs: multiTestConfigs()[:3], L2: &l2,
		Translate: func(addr uint64) uint64 { calls++; return addr }})
	if err != nil {
		t.Fatal(err)
	}
	ms.Process(recs)
	if calls != accesses {
		t.Errorf("Translate ran %d times for %d accesses on 3 configs, want once per access", calls, accesses)
	}

	classify := cache.Config{Size: 2048, BlockSize: 32, Assoc: 2, ClassifyMisses: true}
	st, err := NewMulti(MultiOptions{Configs: []cache.Config{classify}, StatsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	st.Process(recs)
	if v, f, c := st.Vars(0), st.Funcs(0), st.Conflicts(0); len(v)+len(f)+len(c) != 0 {
		t.Errorf("StatsOnly on cache.Cache levels attributed %d vars, %d funcs, %d conflicts; want none", len(v), len(f), len(c))
	}
	ref, err := New(Options{L1: classify})
	if err != nil {
		t.Fatal(err)
	}
	ref.Process(recs)
	if got, want := st.Stats(0), ref.L1().Stats(); got.Accesses() != want.Accesses() || got.Misses() != want.Misses() {
		t.Errorf("StatsOnly: %d/%d misses/accesses, want %d/%d", got.Misses(), got.Accesses(), want.Misses(), want.Accesses())
	}
}

// TestMultiSimIntervalSampling pins the window arithmetic — window 0
// always simulates, every k-th window thereafter — and checks the scaled
// estimate lands near the exact totals on a phase-stable trace.
func TestMultiSimIntervalSampling(t *testing.T) {
	cfg := cache.Config{Size: 4096, BlockSize: 32, Assoc: 2, Repl: cache.ReplLRU}
	recs := multiRecords(64*1024, 8)
	exact, err := NewMulti(MultiOptions{Configs: []cache.Config{cfg}})
	if err != nil {
		t.Fatal(err)
	}
	exact.Process(recs)

	const k, w = 4, 1024
	sampled, err := NewMulti(MultiOptions{
		Configs:  []cache.Config{cfg},
		Sampling: Sampling{Interval: k, Window: w},
	})
	if err != nil {
		t.Fatal(err)
	}
	sampled.Process(recs)

	wantSim := int64(0)
	for win := 0; win*w < len(recs); win++ {
		if win%k == 0 {
			end := (win + 1) * w
			if end > len(recs) {
				end = len(recs)
			}
			wantSim += int64(end - win*w)
		}
	}
	if sampled.SimulatedRecords() != wantSim {
		t.Fatalf("simulated %d records, want %d", sampled.SimulatedRecords(), wantSim)
	}
	if sampled.Records() != int64(len(recs)) {
		t.Fatalf("fed %d, want %d", sampled.Records(), len(recs))
	}
	gotScale := sampled.RecordScale()
	wantScale := float64(len(recs)) / float64(wantSim)
	if math.Abs(gotScale-wantScale) > 1e-9 {
		t.Fatalf("scale %v, want %v", gotScale, wantScale)
	}

	est, ref := sampled.ScaledStats(0), exact.Stats(0)
	if est.Accesses() == 0 {
		t.Fatal("no sampled accesses")
	}
	relErr := math.Abs(est.MissRatio()-ref.MissRatio()) / ref.MissRatio()
	if relErr > 0.10 {
		t.Errorf("interval-sampled miss ratio %.5f vs exact %.5f: relative error %.3f > 0.10",
			est.MissRatio(), ref.MissRatio(), relErr)
	}
	accErr := math.Abs(float64(est.Accesses()-ref.Accesses())) / float64(ref.Accesses())
	if accErr > 0.02 {
		t.Errorf("scaled accesses %d vs exact %d: relative error %.3f > 0.02", est.Accesses(), ref.Accesses(), accErr)
	}
}

// TestSimulatorMergeFrom is the attribution half of the sharded-merge
// property: two cold-cache shard simulations merged must reproduce — to
// the byte — the report of one simulation with a Flush at the boundary,
// including per-variable per-set series, function totals, the conflict
// matrix, and both cache levels.
func TestSimulatorMergeFrom(t *testing.T) {
	l2 := cache.Config{Size: 32768, BlockSize: 64, Assoc: 4, Repl: cache.ReplLRU}
	opts := func() Options {
		return Options{
			L1: cache.Config{Size: 2048, BlockSize: 32, Assoc: 2, Repl: cache.ReplLRU, ClassifyMisses: true},
			L2: &l2,
		}
	}
	recs := multiRecords(20000, 12)
	for _, split := range []int{0, 1, len(recs) / 2, len(recs)} {
		ref, err := New(opts())
		if err != nil {
			t.Fatal(err)
		}
		ref.Process(recs[:split])
		ref.L1().Flush()
		ref.L2().Flush()
		ref.Process(recs[split:])

		a, _ := New(opts())
		b, _ := New(opts())
		a.Process(recs[:split])
		b.Process(recs[split:])
		if err := a.MergeFrom(b); err != nil {
			t.Fatal(err)
		}
		if got, want := a.Report(), ref.Report(); got != want {
			t.Errorf("split %d: merged shard report != concatenated report\n--- merged ---\n%s\n--- ref ---\n%s",
				split, got, want)
		}
		if a.Records() != ref.Records() {
			t.Errorf("split %d: merged records %d != ref %d", split, a.Records(), ref.Records())
		}
		// Per-set series must merge exactly, not just the report totals.
		av, rv := a.Vars(), ref.Vars()
		for i := range rv {
			for set := range rv[i].PerSet {
				if av[i].PerSet[set] != rv[i].PerSet[set] {
					t.Fatalf("split %d: var %s set %d: merged %+v != ref %+v",
						split, rv[i].Name, set, av[i].PerSet[set], rv[i].PerSet[set])
				}
			}
		}
	}

	// Mismatched geometries must refuse to merge.
	x, _ := New(Options{L1: cache.Config{Size: 1024, BlockSize: 32, Assoc: 1}})
	y, _ := New(Options{L1: cache.Config{Size: 4096, BlockSize: 32, Assoc: 1}})
	if err := x.MergeFrom(y); err == nil {
		t.Error("merging different set counts: want error")
	}
}

// TestMultiSimFeedZeroAllocs pins the hot path: once symbol tables, series
// pages and conflict cells exist, a multi-config Feed must not allocate.
func TestMultiSimFeedZeroAllocs(t *testing.T) {
	cfgs := []cache.Config{
		{Size: 1024, BlockSize: 32, Assoc: 1},
		{Size: 4096, BlockSize: 32, Assoc: 2, Repl: cache.ReplLRU},
		{Size: 8192, BlockSize: 32, Assoc: 4, Repl: cache.ReplFIFO},
		{Size: 4096, BlockSize: 32, Assoc: 64, Repl: cache.ReplRoundRobin},
	}
	recs := multiRecords(4096, 16)
	ms, err := NewMulti(MultiOptions{Configs: cfgs})
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 4; pass++ { // warm: instantiate every series page and conflict cell
		ms.Process(recs)
	}
	allocs := testing.AllocsPerRun(10, func() {
		ms.Process(recs)
	})
	if allocs != 0 {
		t.Errorf("MultiSim.Process allocates %.1f times per pass over %d records, want 0", allocs, len(recs))
	}
}

// BenchmarkMultiSimFeed measures the single-pass engine's per-record cost
// with the standard sweep's eight direct-mapped geometries.
func BenchmarkMultiSimFeed(b *testing.B) {
	var cfgs []cache.Config
	for size := int64(256); size <= 32768; size *= 2 {
		cfgs = append(cfgs, cache.Config{Size: size, BlockSize: 32, Assoc: 1})
	}
	recs := multiRecords(4096, 16)
	ms, err := NewMulti(MultiOptions{Configs: cfgs})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms.Feed(&recs[i%len(recs)])
	}
	b.ReportMetric(float64(b.N*len(cfgs))*1e9/float64(b.Elapsed().Nanoseconds()), "cfgrec/s")
}

// BenchmarkMultiSimFeedStatsOnly measures the sweep engine's mode: cache
// statistics only, no attribution.
func BenchmarkMultiSimFeedStatsOnly(b *testing.B) {
	var cfgs []cache.Config
	for size := int64(256); size <= 32768; size *= 2 {
		cfgs = append(cfgs, cache.Config{Size: size, BlockSize: 32, Assoc: 1})
	}
	recs := multiRecords(4096, 16)
	ms, err := NewMulti(MultiOptions{Configs: cfgs, StatsOnly: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms.Feed(&recs[i%len(recs)])
	}
	b.ReportMetric(float64(b.N*len(cfgs))*1e9/float64(b.Elapsed().Nanoseconds()), "cfgrec/s")
}

// TestReportRowsMatchFmt: Report formats its table and conflict rows by
// hand, and writes what the fmt verbs it replaced wrote, byte for byte:
// names padded by runes, names and counts wider than their columns, and
// negative counts.
func TestReportRowsMatchFmt(t *testing.T) {
	names := []string{"", "lI", "glStructArray[0].myArray", "a_variable_name_wider_than_24", "größe", "変数変数変数変数変数変数変数変数変数変数変数変数変数"}
	counts := []int64{0, 1, 999, 12345678901, -3, 1 << 62}
	for _, name := range names {
		for _, c := range counts {
			var b strings.Builder
			writeReportRow(&b, name, c, c/2, c/3)
			if want := fmt.Sprintf(" %-24s %10d %10d %10d %7.2f%%\n", name, c, c/2, c/3, pct(c/3, c)); b.String() != want {
				t.Errorf("row %q %d:\n%q\nwant\n%q", name, c, b.String(), want)
			}
			b.Reset()
			writeConflictRow(&b, name, names[len(names)-1], c)
			if want := fmt.Sprintf(" %-24s evicted %-24s %8d times\n", name, names[len(names)-1], c); b.String() != want {
				t.Errorf("conflict %q %d:\n%q\nwant\n%q", name, c, b.String(), want)
			}
		}
	}
}
