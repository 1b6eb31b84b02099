// Package dinero is the trace-consuming front end of the cache simulator —
// the role DineroIV plays in the paper, including the modifications the
// authors describe: statistics are attributed to the function and the
// program variable named in each trace line, per-set counters feed the
// paper's figures, and a variable×variable eviction matrix exposes
// "conflicts between program structures".
//
// The per-access hot path is allocation-lean: symbols are interned into
// integer ids (trace.SymTab) so attribution is a slice index instead of a
// string-map lookup, cache outcomes land in a reusable buffer, and per-set
// series grow lazily in 64-set pages. Feeding records that were interned
// (trace.InternRecords) against the table passed in Options.Syms skips
// string handling entirely.
package dinero

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

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
	// Syms, when non-nil, is the intern table the simulator attributes
	// against. Records whose FuncID/VarID were filled by
	// trace.InternRecords against this same table are attributed without
	// touching their string fields — the fast path for parallel sweeps
	// sharing one immutable record slice. When nil the simulator creates a
	// private table and interns per record, and any ids carried on records
	// are ignored (they belong to some other table).
	Syms *trace.SymTab
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
	// PageAllocs counts the 64-set pages lazily allocated for this
	// series — the memory-vs-coverage signal telemetry reports.
	PageAllocs int64

	// pages backs PerSet sparsely: one 64-set page per touched region, so
	// large-cache sweeps with many variables stop paying O(vars×sets)
	// memory up front. PerSet is materialized from it by the accessors.
	pages [][]cache.SetStats
	nsets int
	dirty bool
}

func newVarSeries(name string, nsets int) *VarSeries {
	return &VarSeries{
		Name:  name,
		nsets: nsets,
		pages: make([][]cache.SetStats, (nsets+perSetPage-1)/perSetPage),
	}
}

// touch records one block outcome for set.
func (vs *VarSeries) touch(set int, hit bool) {
	pg := vs.pages[set/perSetPage]
	if pg == nil {
		pg = make([]cache.SetStats, perSetPage)
		vs.pages[set/perSetPage] = pg
		vs.PageAllocs++
	}
	if hit {
		pg[set%perSetPage].Hits++
	} else {
		pg[set%perSetPage].Misses++
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

// Simulator drives a cache hierarchy from Gleipnir trace records.
type Simulator struct {
	l1, l2 *cache.Cache

	syms     *trace.SymTab
	trustIDs bool // record ids were issued by syms
	nosymID  trace.SymID

	// at holds the attribution state (per-variable series, per-function
	// totals, conflict matrix) shared with the multi-config engine.
	at        attrib
	translate func(uint64) uint64
	records   int64
	ignored   int64
	// out is the reusable outcome buffer handed to cache.Access.
	out []cache.Outcome
}

// New builds a simulator.
func New(opts Options) (*Simulator, error) {
	var l2 *cache.Cache
	if opts.L2 != nil {
		var err error
		l2, err = cache.New(*opts.L2, nil)
		if err != nil {
			return nil, err
		}
	}
	l1, err := cache.New(opts.L1, l2)
	if err != nil {
		return nil, err
	}
	syms := opts.Syms
	trust := syms != nil
	if syms == nil {
		syms = trace.NewSymTab()
	}
	return &Simulator{
		l1:        l1,
		l2:        l2,
		syms:      syms,
		trustIDs:  trust,
		nosymID:   syms.Intern(NoSymbol),
		at:        newAttrib(syms, l1.Config().Sets()),
		translate: opts.Translate,
	}, nil
}

// L1 returns the first-level cache.
func (s *Simulator) L1() *cache.Cache { return s.l1 }

// L2 returns the second-level cache or nil.
func (s *Simulator) L2() *cache.Cache { return s.l2 }

// Records returns the number of trace records consumed.
func (s *Simulator) Records() int64 { return s.records }

// varID buckets a record by its symbolic root variable.
func (s *Simulator) varID(rec *trace.Record) trace.SymID {
	if !rec.HasSym {
		return s.nosymID
	}
	if s.trustIDs && rec.VarID != 0 {
		return rec.VarID
	}
	return s.syms.Intern(rec.Var.Root)
}

func (s *Simulator) funcID(rec *trace.Record) trace.SymID {
	if s.trustIDs && rec.FuncID != 0 {
		return rec.FuncID
	}
	return s.syms.Intern(rec.Func)
}

// Feed simulates one trace record. Loads access the cache once; stores
// likewise; modifies perform a read followed by a write (the two halves of
// the RMW). X records are counted but do not touch the cache.
func (s *Simulator) Feed(rec *trace.Record) {
	s.records++
	switch rec.Op {
	case trace.Load:
		s.apply(rec, cache.Read)
	case trace.Store:
		s.apply(rec, cache.Write)
	case trace.Modify:
		s.apply(rec, cache.Read)
		s.apply(rec, cache.Write)
	default:
		s.ignored++
	}
}

func (s *Simulator) apply(rec *trace.Record, kind cache.Kind) {
	addr := rec.Addr
	if s.translate != nil {
		addr = s.translate(addr)
	}
	vid := s.varID(rec)
	fid := s.funcID(rec)
	owner := cache.OwnerID(vid)
	s.out = s.l1.Access(kind, addr, rec.Size, owner, s.out[:0])
	vs := s.at.varAt(vid)
	fs := s.at.funcAt(fid)
	for i := range s.out {
		o := &s.out[i]
		vs.Accesses++
		fs.Accesses++
		if o.Hit {
			vs.Hits++
			fs.Hits++
		} else {
			vs.Misses++
			fs.Misses++
		}
		vs.touch(o.Set, o.Hit)
		if o.Evicted && o.EvictedOwner != cache.NoOwner && o.EvictedOwner != owner {
			s.at.bumpConflict(vid, o.EvictedOwner)
		}
	}
}

// Process simulates a record slice.
func (s *Simulator) Process(recs []trace.Record) {
	for i := range recs {
		s.Feed(&recs[i])
	}
}

// ProcessSourceCtx is ProcessSource wrapped in a "dinero.simulate" span:
// when ctx carries a trace the span joins its tree, tagged with the record
// count, and the per-name aggregate is recorded either way.
func (s *Simulator) ProcessSourceCtx(ctx context.Context, src trace.RecordSource) error {
	sp, _ := telemetry.Default().StartSpanCtx(ctx, "dinero.simulate")
	err := s.ProcessSource(src)
	sp.SetAttr("records", strconv.FormatInt(s.Records(), 10))
	sp.End()
	return err
}

// ProcessSource streams record batches from src until EOF, holding only
// one batch live at a time — the constant-memory ingestion path. Results
// are identical to Process over the materialized trace.
func (s *Simulator) ProcessSource(src trace.RecordSource) error {
	for {
		batch, err := src.NextBatch()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		s.Process(batch)
	}
}

// Flush invalidates every cache line at both levels, leaving statistics
// and attribution in place. A serial run with Flush at each shard boundary
// is the exact reference for sharded cold-cache simulation: shard
// simulators merged with MergeFrom reproduce it to the byte (ReplRandom
// excepted — its draw stream survives a Flush but not a shard split).
func (s *Simulator) Flush() {
	s.l1.Flush()
	if s.l2 != nil {
		s.l2.Flush()
	}
}

// PageAllocs returns how many 64-set series pages the simulation
// allocated across all variables.
func (s *Simulator) PageAllocs() int64 { return s.at.pageAllocs() }

// MergeFrom folds other's simulation into s: cache statistics at both
// levels, record counts, and the full attribution state (per-variable
// series with per-set counters, per-function totals, conflict matrix),
// matching symbols by name. With a Flush at the shard boundary this is
// exact — simulating trace shards on cold caches and merging equals one
// simulation of the concatenation — which is the aggregation step for
// sharding sweeps across machines.
func (s *Simulator) MergeFrom(other *Simulator) error {
	if s.l1.Config().Sets() != other.l1.Config().Sets() {
		return fmt.Errorf("dinero: MergeFrom: set counts differ (%d vs %d)",
			s.l1.Config().Sets(), other.l1.Config().Sets())
	}
	if (s.l2 == nil) != (other.l2 == nil) {
		return fmt.Errorf("dinero: MergeFrom: L2 presence differs")
	}
	s.l1.MergeStats(other.l1.Stats())
	if s.l2 != nil {
		s.l2.MergeStats(other.l2.Stats())
	}
	s.records += other.records
	s.ignored += other.ignored
	s.at.mergeFrom(&other.at)
	return nil
}

// PublishTelemetry adds this simulation's totals to reg: records consumed,
// cache accesses by outcome, ignored records and lazy set-page
// allocations. It is a cold-path publish — the per-access loop stays
// untouched — so callers invoke it once per finished simulation.
func (s *Simulator) PublishTelemetry(reg *telemetry.Registry) {
	st := s.l1.Stats()
	reg.Counter("dinero.sims").Inc()
	reg.Counter("dinero.records_simulated").Add(s.records)
	reg.Counter("dinero.records_ignored").Add(s.ignored)
	reg.Counter("dinero.accesses").Add(st.Accesses())
	reg.Counter("dinero.hits").Add(st.Hits())
	reg.Counter("dinero.misses").Add(st.Misses())
	reg.Counter("dinero.page_allocs").Add(s.PageAllocs())
}

// Var returns the series for one variable (nil when unseen).
func (s *Simulator) Var(name string) *VarSeries {
	id, ok := s.syms.Lookup(name)
	if !ok || int(id) >= len(s.at.varsByID) {
		return nil
	}
	vs := s.at.varsByID[id]
	if vs != nil {
		vs.materialize()
	}
	return vs
}

// Vars returns all variable series sorted by descending access count, then
// name.
func (s *Simulator) Vars() []*VarSeries { return s.at.vars() }

// Funcs returns per-function stats sorted by descending access count.
func (s *Simulator) Funcs() []*FuncStats { return s.at.funcs() }

// Conflicts returns the eviction matrix sorted by descending count.
func (s *Simulator) Conflicts() []Conflict { return s.at.conflictList() }

// Report renders the full text report: overall DineroIV-style statistics,
// per-function and per-variable tables, and the conflict matrix.
func (s *Simulator) Report() string {
	var l2 *cache.Stats
	if s.l2 != nil {
		st := s.l2.Stats()
		l2 = &st
	}
	return renderReport(s.l1.Config(), s.l1.Stats(), l2, &s.at)
}

// renderReport is the one renderer behind Simulator.Report and the
// multi-config engine's per-config reports, so the two paths cannot drift:
// exact-mode multi-config output is byte-identical because it is the same
// code over the same numbers.
func renderReport(cfg cache.Config, l1 cache.Stats, l2 *cache.Stats, a *attrib) string {
	var b strings.Builder
	fmt.Fprintf(&b, "---Simulation begins.\n")
	fmt.Fprintf(&b, "l1-dcache: %d bytes, %d-byte blocks, %d-way, %s replacement, %s, %s\n",
		cfg.Size, cfg.BlockSize, displayAssoc(cfg), cfg.Repl, cfg.Write, cfg.Alloc)
	b.WriteString(l1.Report("l1-data"))
	if l2 != nil {
		b.WriteString(l2.Report("l2-unified"))
	}

	fmt.Fprintf(&b, "\nPer-function statistics\n")
	fmt.Fprintf(&b, " %-24s %10s %10s %10s %8s\n", "function", "accesses", "hits", "misses", "miss%")
	for _, fs := range a.funcs() {
		fmt.Fprintf(&b, " %-24s %10d %10d %10d %7.2f%%\n",
			fs.Name, fs.Accesses, fs.Hits, fs.Misses, pct(fs.Misses, fs.Accesses))
	}

	fmt.Fprintf(&b, "\nPer-variable statistics\n")
	fmt.Fprintf(&b, " %-24s %10s %10s %10s %8s\n", "variable", "accesses", "hits", "misses", "miss%")
	for _, vs := range a.sortedVars() {
		fmt.Fprintf(&b, " %-24s %10d %10d %10d %7.2f%%\n",
			vs.Name, vs.Accesses, vs.Hits, vs.Misses, pct(vs.Misses, vs.Accesses))
	}

	if cs := a.conflictList(); len(cs) > 0 {
		fmt.Fprintf(&b, "\nStructure conflicts (evictor ← victim)\n")
		for _, c := range cs {
			fmt.Fprintf(&b, " %-24s evicted %-24s %8d times\n", c.Evictor, c.Victim, c.Count)
		}
	}
	fmt.Fprintf(&b, "---Simulation complete.\n")
	return b.String()
}

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
