// Package experiments regenerates every figure of the paper's evaluation
// (§IV-V): the per-set cache histograms of Figures 3, 4, 6, 7, 10 and 11
// and the trace diffs of Figures 5, 8 and 9, using the same workloads,
// rules and cache geometries. cmd/experiments prints them; bench_test.go
// measures them; EXPERIMENTS.md records the paper-vs-measured comparison.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"tracedst/internal/analysis"
	"tracedst/internal/cache"
	"tracedst/internal/dinero"
	"tracedst/internal/rules"
	"tracedst/internal/simcache"
	"tracedst/internal/telemetry"
	"tracedst/internal/trace"
	"tracedst/internal/tracediff"
	"tracedst/internal/tracer"
	"tracedst/internal/workloads"
	"tracedst/internal/xform"
)

// LEN mirrors the paper: 16 elements for transformations 1 and 2 (the rule
// files of Listings 5 and 8 say [16]), 1024 for transformation 3 (Listing
// 10's 4 KB original array).
const (
	LenT1 = 16
	LenT2 = 16
	LenT3 = 1024
)

// Result is one regenerated figure. Every printed field survives a JSON
// round trip, which is how a store replays a finished figure without
// recomputing it; only SimReport (never printed) is excluded and stays
// empty on restored results.
type Result struct {
	// ID is the figure identifier, e.g. "fig3".
	ID string
	// Title describes the figure.
	Title string
	// Cache names the simulated geometry ("" for pure diff figures).
	Cache string
	// Plot holds per-set series for histogram figures (nil for diffs).
	Plot *analysis.Plot
	// Diff holds the trace alignment for diff figures (nil otherwise).
	Diff *tracediff.Diff
	// SimReport is the rendered simulator report for histogram figures.
	// It is not stored: results restored from a store have an empty
	// SimReport.
	SimReport string `json:"-"`
	// Notes are measured observations to compare against the paper's
	// claims.
	Notes []string
	// Records is the number of trace records involved.
	Records int
}

func (r *Result) notef(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// memoTrace caches one workload's record slice behind a sync.Once, so a
// full Sweeps+Figures run traces (and transforms) each workload exactly
// once however many figures share it, including when figures run
// concurrently. Once made, the slice is immutable and may be shared
// across goroutines. The slice's content hash, which keys its results in a
// store, is memoized the same way but computed only when first asked for,
// so a run without a store hashes nothing.
type memoTrace struct {
	gen func() ([]trace.Record, error)

	once sync.Once
	recs []trace.Record
	err  error

	hashOnce sync.Once
	hash     string
}

func (m *memoTrace) get() ([]trace.Record, error) {
	m.once.Do(func() {
		m.recs, m.err = m.gen()
		if m.err == nil {
			m.err = validateRecords(m.recs)
		}
	})
	return m.recs, m.err
}

// contentHash returns the simcache hash of the records get returned
// without error.
func (m *memoTrace) contentHash() string {
	m.hashOnce.Do(func() { m.hash = hashRecords(m.recs) })
	return m.hash
}

// hashRecords is simcache.HashRecords, behind a variable so tests can
// count the calls.
var hashRecords = simcache.HashRecords

// validateMu guards the self-check toggle set by SetValidate.
var (
	validateMu sync.RWMutex
	validateOn bool
)

// SetValidate turns on trace self-checking: every generated (and
// transformed) workload trace is run through the strict validator before
// use, failing the figure on any error-severity finding. cmd/experiments
// -validate wires this.
func SetValidate(on bool) {
	validateMu.Lock()
	validateOn = on
	validateMu.Unlock()
}

// validateRecords applies the validator when self-checking is enabled.
func validateRecords(recs []trace.Record) error {
	validateMu.RLock()
	on := validateOn
	validateMu.RUnlock()
	if !on {
		return nil
	}
	rep := trace.ValidateRecords(trace.Header{}, false, recs)
	if !rep.OK() {
		return fmt.Errorf("experiments: generated trace failed validation:\n%s", rep.Summary())
	}
	return nil
}

// maxSteps guards the execution budget applied to every workload traced by
// this package; cmd/experiments wires its -max-steps flag here. Zero keeps
// the interpreter's default limit.
var (
	maxStepsMu sync.Mutex
	maxSteps   int64
)

// SetMaxSteps caps the number of statements any single workload may
// execute while being traced; a workload exceeding it fails its figure
// with an error matching minic.ErrBudgetExceeded instead of hanging the
// run. It returns the previous cap (0 = interpreter default).
func SetMaxSteps(n int64) int64 {
	maxStepsMu.Lock()
	defer maxStepsMu.Unlock()
	prev := maxSteps
	if n < 0 {
		n = 0
	}
	maxSteps = n
	return prev
}

// MaxSteps returns the current per-workload step cap (0 = default).
func MaxSteps() int64 {
	maxStepsMu.Lock()
	defer maxStepsMu.Unlock()
	return maxSteps
}

func runWorkload(src string, defs map[string]string) ([]trace.Record, error) {
	res, err := tracer.Run(src, defs, tracer.Options{MaxSteps: MaxSteps()})
	if err != nil {
		return nil, err
	}
	return res.Records, nil
}

func applyRule(ruleSrc string, orig []trace.Record) ([]trace.Record, error) {
	rule, err := rules.Parse(ruleSrc)
	if err != nil {
		return nil, err
	}
	eng, err := xform.New(xform.Options{}, rule)
	if err != nil {
		return nil, err
	}
	return eng.TransformAll(orig)
}

// hotLoopLen is the T2 hot-loop sweep's element count.
const hotLoopLen = 128

// The workload traces, each original next to its transformation.
var (
	// t1Trace is the SoA program; t1Xform applies the Listing 5 rule to it.
	t1Trace = workloadTrace(workloads.Trans1SoA, LenT1)
	t1Xform = transformedTrace(t1Trace, workloads.RuleTrans1ForLen(LenT1))

	t2Trace = workloadTrace(workloads.Trans2Inline, LenT2)
	t2Xform = transformedTrace(t2Trace, workloads.RuleTrans2ForLen(LenT2))

	t3Trace = workloadTrace(workloads.Trans3Contiguous, LenT3)
	t3Xform = transformedTrace(t3Trace, workloads.RuleTrans3ForLen(LenT3, 16, 8))

	t2HotTrace = workloadTrace(workloads.Trans2HotLoop, hotLoopLen)
	t2HotXform = transformedTrace(t2HotTrace, workloads.RuleTrans2ForLen(hotLoopLen))
)

// workloadTrace memoizes the trace of src run with LEN=n.
func workloadTrace(src string, n int) *memoTrace {
	return &memoTrace{gen: func() ([]trace.Record, error) {
		return runWorkload(src, map[string]string{"LEN": fmt.Sprint(n)})
	}}
}

// transformedTrace memoizes orig's trace rewritten by ruleSrc.
func transformedTrace(orig *memoTrace, ruleSrc string) *memoTrace {
	return &memoTrace{gen: func() ([]trace.Record, error) {
		recs, err := orig.get()
		if err != nil {
			return nil, err
		}
		return applyRule(ruleSrc, recs)
	}}
}

// simulate runs records once through the single-pass multi-config engine
// for the given configs and publishes the finished pass's counters to the
// default registry. Exact-mode MultiSim reports and
// per-variable series are byte-identical to independent Simulator runs,
// so figures built from it print exactly as before. With shards above 1
// the pass runs on the sharded full-attribution engine instead (cold
// shards interning privately; MergeFrom matches symbols by name).
func simulate(recs []trace.Record, shards int, cfgs ...cache.Config) (*dinero.MultiSim, error) {
	reg := telemetry.Default()
	if shards > 1 {
		res, err := dinero.MultiSimShardedRecords(context.Background(), recs, dinero.MultiOptions{Configs: cfgs}, shards)
		if err != nil {
			return nil, err
		}
		reg.Counter("experiments.records_in").Add(int64(len(recs)))
		res.PublishShardTelemetry(reg)
		return res.Sim, nil
	}
	ms, err := dinero.NewMulti(dinero.MultiOptions{Configs: cfgs})
	if err != nil {
		return nil, err
	}
	ms.Process(recs)
	reg.Counter("experiments.records_in").Add(int64(len(recs)))
	ms.PublishTelemetry(reg)
	return ms, nil
}

func histogramResult(id, title string, recs []trace.Record, shards int, cfg cache.Config) (*Result, error) {
	ms, err := simulate(recs, shards, cfg)
	if err != nil {
		return nil, err
	}
	// The plot copies every per-set count and the report is a string, so
	// nothing the result keeps aliases the arrays the release hands on.
	defer ms.Release()
	r := &Result{
		ID:        id,
		Title:     title,
		Cache:     fmt.Sprintf("%d bytes, %d-byte blocks, %s", cfg.Size, cfg.BlockSize, assocName(cfg)),
		Plot:      analysis.FromMulti(title, ms, 0, false),
		SimReport: ms.Report(0),
		Records:   len(recs),
	}
	return r, nil
}

func assocName(cfg cache.Config) string {
	if cfg.Assoc == 1 {
		return "1-way"
	}
	return fmt.Sprintf("%d-way %s", cfg.Assoc, cfg.Repl)
}

// fig3 — per-set hits/misses of the SoA program on the 32 KB direct-mapped
// cache (series lSoA and lI).
func fig3(shards int) (*Result, error) {
	recs, err := t1Trace.get()
	if err != nil {
		return nil, err
	}
	r, err := histogramResult("fig3", "Structure of Arrays (original)", recs, shards, cache.Paper32KDirect())
	if err != nil {
		return nil, err
	}
	addOccupancyNotes(r, "lSoA", "lI")
	return r, nil
}

// fig4 — the same trace after the SoA→AoS rule (series lAoS and lI).
func fig4(shards int) (*Result, error) {
	recs, err := t1Xform.get()
	if err != nil {
		return nil, err
	}
	r, err := histogramResult("fig4", "Array of Structures (transformed)", recs, shards, cache.Paper32KDirect())
	if err != nil {
		return nil, err
	}
	addOccupancyNotes(r, "lAoS", "lI")
	if err := addUniformityNote(r, "lAoS"); err != nil {
		return nil, err
	}
	return r, nil
}

// fig5 — the side-by-side diff of the original and transformed T1 traces.
func fig5(int) (*Result, error) {
	orig, err := t1Trace.get()
	if err != nil {
		return nil, err
	}
	got, err := t1Xform.get()
	if err != nil {
		return nil, err
	}
	d := tracediff.New(orig, got)
	r := &Result{
		ID:      "fig5",
		Title:   "SoA→AoS trace diff",
		Diff:    d,
		Records: len(got),
	}
	st := d.Stats()
	r.notef("lines: %d same, %d rewritten, %d inserted, %d deleted",
		st.Same, st.Rewritten, st.Inserted, st.Deleted)
	r.notef("every lSoA access was renamed to lAoS with a new base address; no extra accesses (1:1 mapping)")
	return r, nil
}

// fig6 — per-set stats of the inline nested-structure program.
func fig6(shards int) (*Result, error) {
	recs, err := t2Trace.get()
	if err != nil {
		return nil, err
	}
	r, err := histogramResult("fig6", "Single level nested structure (original)", recs, shards, cache.Paper32KDirect())
	if err != nil {
		return nil, err
	}
	addOccupancyNotes(r, "lS1", "lI")
	return r, nil
}

// fig7 — per-set stats after outlining (series lS2, lStorageForRarelyUsed,
// lI) with the extra pointer loads.
func fig7(shards int) (*Result, error) {
	orig, err := t2Trace.get()
	if err != nil {
		return nil, err
	}
	recs, err := t2Xform.get()
	if err != nil {
		return nil, err
	}
	r, err := histogramResult("fig7", "Structure access through indirection (transformed)", recs, shards, cache.Paper32KDirect())
	if err != nil {
		return nil, err
	}
	addOccupancyNotes(r, "lS2", "lStorageForRarelyUsed", "lI")
	r.notef("indirection adds %d pointer loads (one per outlined access)", len(recs)-len(orig))
	return r, nil
}

// fig8 — the T2 trace diff with the inserted indirection loads.
func fig8(int) (*Result, error) {
	orig, err := t2Trace.get()
	if err != nil {
		return nil, err
	}
	got, err := t2Xform.get()
	if err != nil {
		return nil, err
	}
	d := tracediff.New(orig, got)
	r := &Result{ID: "fig8", Title: "Nested structure to structure with indirection: trace diff",
		Diff: d, Records: len(got)}
	st := d.Stats()
	r.notef("lines: %d same, %d rewritten, %d inserted (pointer loads), %d deleted",
		st.Same, st.Rewritten, st.Inserted, st.Deleted)
	return r, nil
}

// fig9 — the T3 trace diff with injected stride-arithmetic loads.
func fig9(int) (*Result, error) {
	orig, err := t3Trace.get()
	if err != nil {
		return nil, err
	}
	got, err := t3Xform.get()
	if err != nil {
		return nil, err
	}
	d := tracediff.New(orig, got)
	r := &Result{ID: "fig9", Title: "Contiguous array to set-pinned array: trace diff",
		Diff: d, Records: len(got)}
	st := d.Stats()
	r.notef("lines: %d same, %d rewritten, %d inserted (ITEMSPERLINE/lI arithmetic), %d deleted",
		st.Same, st.Rewritten, st.Inserted, st.Deleted)
	return r, nil
}

// fig10 — the contiguous sweep on the PowerPC 440 cache.
func fig10(shards int) (*Result, error) {
	recs, err := t3Trace.get()
	if err != nil {
		return nil, err
	}
	r, err := histogramResult("fig10", "Contiguous array (PPC440 64-way round-robin)", recs, shards, cache.PowerPC440())
	if err != nil {
		return nil, err
	}
	addOccupancyNotes(r, "lContiguousArray", "lI")
	return r, nil
}

// fig11 — the strided/pinned sweep on the PowerPC 440 cache.
func fig11(shards int) (*Result, error) {
	recs, err := t3Xform.get()
	if err != nil {
		return nil, err
	}
	r, err := histogramResult("fig11", "Array striding (PPC440 64-way round-robin)", recs, shards, cache.PowerPC440())
	if err != nil {
		return nil, err
	}
	addOccupancyNotes(r, "lSetHashingArray", "ITEMSPERLINE", "lI")
	if s, ok := r.Plot.SeriesByLabel("lSetHashingArray"); ok {
		occ := analysis.OccupancyOf(s)
		r.notef("set pinning: %.0f%% of lSetHashingArray traffic in set %d (sets touched: %d)",
			100*occ.DominantShare, occ.DominantSet, occ.SetsTouched)
	}
	return r, nil
}

// addOccupancyNotes records where each named series landed.
func addOccupancyNotes(r *Result, names ...string) {
	for _, name := range names {
		s, ok := r.Plot.SeriesByLabel(name)
		if !ok {
			r.notef("series %s: absent", name)
			continue
		}
		occ := analysis.OccupancyOf(s)
		r.notef("%s: %d hits, %d misses over %d sets (dominant set %d, %.0f%%)",
			name, occ.Hits, occ.Misses, occ.SetsTouched, occ.DominantSet, 100*occ.DominantShare)
	}
}

// addUniformityNote measures the per-set access spread of a series (the
// paper's "more uniformly accessed pattern" claim for Fig 4).
func addUniformityNote(r *Result, name string) error {
	s, ok := r.Plot.SeriesByLabel(name)
	if !ok {
		return fmt.Errorf("experiments: series %s missing", name)
	}
	var min, max int64 = -1, 0
	for i := range s.Hits {
		t := s.Hits[i] + s.Misses[i]
		if t == 0 {
			continue
		}
		if min < 0 || t < min {
			min = t
		}
		if t > max {
			max = t
		}
	}
	r.notef("%s per-set access spread: min %d, max %d (closer = more uniform)", name, min, max)
	return nil
}

// registry of all figures. Each regenerates its figure with its
// simulations split into the given number of shards (≤1 = serial).
var registry = map[string]func(shards int) (*Result, error){
	"fig3": fig3, "fig4": fig4, "fig5": fig5, "fig6": fig6, "fig7": fig7,
	"fig8": fig8, "fig9": fig9, "fig10": fig10, "fig11": fig11,
}

// IDs returns the known figure ids in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		// fig3 < fig4 < … < fig11 numerically.
		return figNum(out[i]) < figNum(out[j])
	})
	return out
}

func figNum(id string) int {
	var n int
	fmt.Sscanf(id, "fig%d", &n)
	return n
}

// figNS is the store namespace of regenerated figures.
const figNS = "fig"

// Figures regenerates the figures named by ids (every figure, in IDs
// order, when none are named) on the worker pool under opts. An unknown
// id fails the call before any figure runs. Output is identical for any
// worker count: workloads are traced once (memoized) and each figure
// simulates into its own simulator. With opts.Shards above 1 the
// histogram figures simulate sharded, with full attribution, and equal a
// serial run that flushes at every shard boundary. A non-nil store
// replays figures an earlier run finished (restored results print
// identically; their SimReport is empty) and stores fresh ones, keyed by
// figure id, shard tier and engine version. On error the partial result
// slice is returned with it: failed or skipped figures are nil entries,
// and in KeepGoing mode the error is a TaskErrors naming each failed
// figure while the others completed.
func Figures(ctx context.Context, opts RunOptions, ids ...string) ([]*Result, error) {
	if len(ids) == 0 {
		ids = IDs()
	}
	for _, id := range ids {
		if _, ok := registry[id]; !ok {
			return nil, fmt.Errorf("experiments: unknown figure %q (known: %v)", id, IDs())
		}
	}
	out := make([]*Result, len(ids))
	name := func(i int) string { return ids[i] }
	// Sharded figures are a distinct result tier (flush-at-boundary
	// reference), like the sweeps' @shardsN result keys.
	tier := ""
	if opts.Shards > 1 {
		tier = fmt.Sprintf("@shards%d", opts.Shards)
	}
	err := forEachPolicy(ctx, opts.Policy, opts.workerCount(), len(ids), name, func(_ context.Context, i int) error {
		id := ids[i]
		key := fmt.Sprintf("%s%s@engine%d", id, tier, simcache.EngineVersion)
		if opts.Store != nil {
			saved, ok, err := simcache.Record[Result](opts.Store, figNS, key)
			if err != nil {
				return err
			}
			if ok {
				out[i] = &saved
				return nil
			}
		}
		r, err := registry[id](opts.Shards)
		if err != nil {
			return err // forEachPolicy's TaskError labels it with the figure id
		}
		out[i] = r
		if opts.Store != nil {
			return opts.Store.PutRecord(figNS, key, r)
		}
		return nil
	})
	return out, err
}
