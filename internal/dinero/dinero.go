// Package dinero is the trace-consuming front end of the cache simulator —
// the role DineroIV plays in the paper, including the modifications the
// authors describe: statistics are attributed to the function and the
// program variable named in each trace line, per-set counters feed the
// paper's figures, and a variable×variable eviction matrix exposes
// "conflicts between program structures".
//
// The per-access hot path is allocation-lean: each simulator interns the
// names it attributes to into integer ids of its own, resolved once per
// trace.Site through a memo keyed by the site pointer (records carry no
// ids), so attribution is a slice index; cache outcomes land in a
// reusable buffer, and per-set series grow lazily in 64-set pages.
package dinero

import (
	"context"

	"tracedst/internal/cache"
	"tracedst/internal/telemetry"
	"tracedst/internal/trace"
)

// NoSymbol is the attribution bucket for records without debug info.
const NoSymbol = "(nosym)"

// Options configure a simulation.
type Options struct {
	// L1 is the first-level (data) cache. Required.
	L1 cache.Config
	// L2, when non-nil, adds a second level behind L1.
	L2 *cache.Config
	// Translate, when non-nil, maps every record's virtual address before
	// it reaches the cache — e.g. pagemap.Mapper.MustTranslate to simulate
	// physically indexed (shared) caches, the paper's §VI remedy for
	// virtual-address-only traces.
	Translate func(uint64) uint64
}

// perSetPage is the lazy-allocation granule of a variable's per-set series.
const perSetPage = 64

// VarSeries accumulates one variable's cache behaviour: the per-set series
// plotted in the paper's figures plus totals.
type VarSeries struct {
	Name     string
	Accesses int64
	Hits     int64
	Misses   int64
	PerSet   []cache.SetStats
	// PageAllocs counts the 64-set pages this series counted in, new or
	// recycled — the memory-vs-coverage signal telemetry reports.
	PageAllocs int64

	// pages backs PerSet sparsely: one 64-set page per touched region, so
	// large-cache sweeps with many variables stop paying O(vars×sets)
	// memory up front. PerSet is materialized from it by the accessors.
	pages [][]cache.SetStats
	nsets int
	dirty bool
	st    *simState // where new pages come from
}

// touch records one block outcome for set.
func (vs *VarSeries) touch(set int, hit bool) {
	pg := &vs.pages[set/perSetPage]
	if *pg == nil {
		*pg = vs.st.page()
		vs.PageAllocs++
	}
	if c := &(*pg)[set%perSetPage]; hit {
		c.Hits++
	} else {
		c.Misses++
	}
	vs.dirty = true
}

// materialize fills the dense PerSet slice from the sparse pages. The
// accessors call it, so PerSet is always current on series obtained from
// Var/Vars after feeding finished.
func (vs *VarSeries) materialize() {
	if !vs.dirty && vs.PerSet != nil {
		return
	}
	if vs.PerSet == nil {
		vs.PerSet = make([]cache.SetStats, vs.nsets)
	}
	for pi, pg := range vs.pages {
		if pg == nil {
			continue
		}
		copy(vs.PerSet[pi*perSetPage:], pg)
	}
	vs.dirty = false
}

// FuncStats accumulates one function's totals.
type FuncStats struct {
	Name     string
	Accesses int64
	Hits     int64
	Misses   int64
}

// Conflict is one cell of the eviction matrix: Evictor's fill replaced a
// line that Victim had filled, Count times.
type Conflict struct {
	Evictor string
	Victim  string
	Count   int64
}

// Simulator is the reference engine: a one-config MultiSim whose config
// always runs on cache.Cache levels, never on the flat kernel, so a
// MultiSim checked against it checks one cache engine against the other.
// Its methods are MultiSim's for config 0.
type Simulator struct{ m *MultiSim }

// New builds a simulator.
func New(opts Options) (*Simulator, error) {
	m, err := newMulti(MultiOptions{
		Configs: []cache.Config{opts.L1}, L2: opts.L2, Translate: opts.Translate,
	}, true)
	if err != nil {
		return nil, err
	}
	return &Simulator{m}, nil
}

// L1 returns the first-level cache.
func (s *Simulator) L1() *cache.Cache { return s.m.ref[0] }

// L2 returns the second-level cache or nil.
func (s *Simulator) L2() *cache.Cache { return s.m.ref[0].Next() }

// Records returns the number of trace records consumed.
func (s *Simulator) Records() int64 { return s.m.Records() }

// Feed simulates one trace record (see MultiSim.Feed).
func (s *Simulator) Feed(rec *trace.Record) { s.m.Feed(rec) }

// Process simulates a record slice.
func (s *Simulator) Process(recs []trace.Record) { s.m.Process(recs) }

// ProcessSourceCtx is ProcessSource under a "dinero.simulate" span (see
// MultiSim.ProcessSourceCtx).
func (s *Simulator) ProcessSourceCtx(ctx context.Context, src trace.RecordSource) error {
	return s.m.ProcessSourceCtx(ctx, src)
}

// ProcessSource streams record batches from src until EOF in constant
// memory (see MultiSim.ProcessSource).
func (s *Simulator) ProcessSource(src trace.RecordSource) error { return s.m.ProcessSource(src) }

// Flush invalidates every cache line at both levels, leaving statistics
// and attribution in place (see MultiSim.Flush).
func (s *Simulator) Flush() { s.m.Flush() }

// PageAllocs returns how many 64-set series pages the simulation
// allocated across all variables.
func (s *Simulator) PageAllocs() int64 { return s.m.PageAllocs() }

// MergeFrom folds other's simulation into s: cache statistics at both
// levels, record counts and the full attribution state, matching symbols
// by name (see MultiSim.MergeFrom).
func (s *Simulator) MergeFrom(other *Simulator) error { return s.m.MergeFrom(other.m) }

// PublishTelemetry adds this simulation's totals to reg once it has
// finished (see MultiSim.PublishTelemetry).
func (s *Simulator) PublishTelemetry(reg *telemetry.Registry) { s.m.PublishTelemetry(reg) }

// Var returns the series for one variable (nil when unseen).
func (s *Simulator) Var(name string) *VarSeries { return s.m.at[0].varNamed(name) }

// Vars returns all variable series sorted by descending access count, then
// name.
func (s *Simulator) Vars() []*VarSeries { return s.m.Vars(0) }

// Funcs returns per-function stats sorted by descending access count.
func (s *Simulator) Funcs() []*FuncStats { return s.m.Funcs(0) }

// Conflicts returns the eviction matrix sorted by descending count.
func (s *Simulator) Conflicts() []Conflict { return s.m.Conflicts(0) }

// Report renders the full text report (see MultiSim.Report).
func (s *Simulator) Report() string { return s.m.Report(0) }

func displayAssoc(cfg cache.Config) int {
	if cfg.Assoc == 0 {
		return int(cfg.Size / cfg.BlockSize)
	}
	return cfg.Assoc
}

func pct(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}
