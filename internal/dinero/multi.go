package dinero

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"tracedst/internal/cache"
	"tracedst/internal/telemetry"
	"tracedst/internal/trace"
)

// Sampling selects interval sampling, the one approximate simulation tier
// of a MultiSim. The zero value is exact.
type Sampling struct {
	// Interval k > 1 simulates every k-th window of Window records
	// (window 0 always runs) and scales totals by the fed/simulated ratio.
	// Accurate when behaviour is phase-stable at the window scale.
	Interval int
	// Window is the interval-sampling window length in records
	// (DefaultSampleWindow when zero).
	Window int
}

// DefaultSampleWindow is the interval-sampling window length when
// Sampling.Window is zero.
const DefaultSampleWindow = 4096

// Exact reports whether the sampling configuration is a no-op.
func (sm Sampling) Exact() bool { return sm.Interval <= 1 }

// WindowLen is the window length interval sampling runs with: Window, or
// DefaultSampleWindow when Window is zero.
func (sm Sampling) WindowLen() int {
	if sm.Window == 0 {
		return DefaultSampleWindow
	}
	return sm.Window
}

// MultiOptions configure a multi-configuration simulation.
type MultiOptions struct {
	// Configs are the L1 geometries to evaluate, all in one pass.
	Configs []cache.Config
	// L2, when non-nil, puts a second level of this geometry behind every
	// config, one per config; every config then runs on cache.Cache
	// levels instead of the flat kernel.
	L2 *cache.Config
	// Translate maps virtual addresses before they reach any cache; it
	// runs once per access, shared by every configuration.
	Translate func(uint64) uint64
	// Sampling selects the approximation tier; zero value is exact.
	Sampling Sampling
	// StatsOnly skips per-variable/per-function attribution and the
	// conflict matrix for every config, collecting cache-level statistics
	// only — the sweep engine's mode, where only miss totals are consumed
	// and symbol resolution would be pure overhead. Reports and
	// Vars/Funcs/Conflicts come back empty; cache statistics are
	// unaffected and remain exact.
	StatsOnly bool
}

// MultiSim evaluates N cache configurations over one pass of a trace. It
// is the one trace-consuming front end: Simulator is a one-config
// MultiSim. Record iteration, op dispatch and address translation happen
// once per access, and symbol ids once per site while the site memo holds
// it (see resolve); each configuration then updates its own state on one
// of two engines. Configurations inside the kernel
// envelope (single-level, no prefetch, no classification) share
// cache.MultiSim's flat state; the rest run on bare cache.Cache levels.
// Exact-mode results are byte-identical to N independent Simulator runs —
// Report(i) renders through the same code path over the same counters.
type MultiSim struct {
	cfgs    []cache.Config
	syms    *symTab
	nosymID symID

	translate func(uint64) uint64
	sampling  Sampling
	window    int64
	statsOnly bool

	// at is every config's attribution state: the kernel configs first,
	// indexed by kernel slot so visitBlock needs no lookup, then the
	// reference configs in ref order. slot maps config index -> at index.
	at   []attrib
	slot []int

	// kernel runs the configs at at[:len(at)-len(ref)]; visitFn attributes
	// its outcomes.
	kernel  *cache.MultiSim
	visitFn cache.MultiVisit
	// ref are the L1s of the configs on cache.Cache levels (an L2 is its
	// L1's Next); out is their reusable outcome buffer.
	ref []*cache.Cache
	out []cache.Outcome

	// The access the kernel is simulating, for visitBlock.
	curVid symID
	curFid symID
	curOwn cache.OwnerID

	fed     int64 // records seen (including skipped windows)
	simFed  int64 // records in simulated windows
	ignored int64 // non-memory ops in simulated windows

	// st holds the attribution's series, pages and site memo across runs;
	// a Simulator, which is never released, has one of its own. See
	// Release.
	st       *simState
	released bool

	// reportRows holds the tables Report sorted last, for the next
	// Report to sort into.
	reportRows struct {
		funcs     []*FuncStats
		vars      []*VarSeries
		conflicts []conflictCell
	}
}

// NewMulti builds a multi-configuration simulator.
func NewMulti(opts MultiOptions) (*MultiSim, error) {
	if len(opts.Configs) == 0 {
		return nil, fmt.Errorf("dinero: NewMulti needs at least one config")
	}
	return newMulti(opts, false)
}

// newMulti builds the front end. Every config the kernel accepts runs on
// it, unless reference is set, as New sets it: then every config runs on
// cache.Cache levels and a config's error is cache.New's own, unwrapped.
func newMulti(opts MultiOptions, reference bool) (*MultiSim, error) {
	sm := opts.Sampling
	if sm.Interval < 0 || sm.Window < 0 {
		return nil, fmt.Errorf("dinero: negative sampling parameter")
	}
	onKernel := func(cfg cache.Config) bool {
		return !reference && opts.L2 == nil && cache.CanMulti(cfg) == nil
	}
	nk := 0
	for _, cfg := range opts.Configs {
		if onKernel(cfg) {
			nk++
		}
	}
	syms := newSymTab()
	n := len(opts.Configs)
	m := &MultiSim{
		cfgs:      append([]cache.Config(nil), opts.Configs...),
		syms:      syms,
		nosymID:   syms.intern(NoSymbol),
		translate: opts.Translate,
		sampling:  sm,
		window:    int64(sm.WindowLen()),
		statsOnly: opts.StatsOnly,
		at:        make([]attrib, n),
		slot:      make([]int, n),
		ref:       make([]*cache.Cache, 0, n-nk),
	}
	fast := make([]cache.Config, 0, nk)
	for i, cfg := range opts.Configs {
		if onKernel(cfg) {
			m.slot[i] = len(fast)
			fast = append(fast, cfg)
		} else {
			l1, err := newLevels(cfg, opts.L2)
			if err != nil {
				if reference {
					return nil, err
				}
				return nil, fmt.Errorf("dinero: config %d: %w", i, err)
			}
			m.slot[i] = nk + len(m.ref)
			m.ref = append(m.ref, l1)
		}
		m.at[m.slot[i]] = newAttrib(syms, cfg.Sets())
	}
	if nk > 0 {
		kernel, err := cache.NewMultiSim(fast, 0)
		if err != nil {
			return nil, err
		}
		m.kernel = kernel
		m.visitFn = m.visitBlock
	}
	if reference {
		m.st = &simState{}
	} else {
		m.st = getSimState()
	}
	if !m.statsOnly && m.st.memo == nil {
		m.st.memo = new(siteMemo)
	}
	for i := range m.at {
		m.at[i].st = m.st
	}
	return m, nil
}

// Release hands the simulator's state to the next NewMulti: the kernel's
// arrays, the attribution's series, function totals and 64-set pages, and
// the site memo, cleared. Neither the simulator nor anything read from it
// that shares that state may be used afterwards: Stats(i).PerSet shares
// the kernel's array, and a *VarSeries or *FuncStats is handed to the
// next run. Values copied out before — a report, a miss count, a
// VarSeries' PerSet slice — stay valid.
// A released MultiSim panics on use, and a second Release does nothing.
// No goroutine may still be feeding it.
func (m *MultiSim) Release() {
	if m.released {
		return
	}
	if m.kernel != nil {
		m.kernel.Release()
	}
	m.st.reclaim(m.at)
	putSimState(m.st)
	*m = MultiSim{released: true}
}

// live panics when m was released: its state may be another run's.
func (m *MultiSim) live() {
	if m.released {
		panic("dinero: use of a released MultiSim")
	}
}

// newLevels builds one reference-engine hierarchy and returns its L1:
// l1 and, when l2 is non-nil, a second level behind it (built first, so
// its error wins).
func newLevels(l1 cache.Config, l2 *cache.Config) (*cache.Cache, error) {
	var next *cache.Cache
	if l2 != nil {
		var err error
		if next, err = cache.New(*l2, nil); err != nil {
			return nil, err
		}
	}
	return cache.New(l1, next)
}

// l1Of returns config i's L1 on cache.Cache, or nil when config i runs on
// the kernel (as kernel slot m.slot[i]).
func (m *MultiSim) l1Of(i int) *cache.Cache {
	if r := m.slot[i] - (len(m.at) - len(m.ref)); r >= 0 {
		return m.ref[r]
	}
	return nil
}

// Flush invalidates every configuration's cache lines at every level,
// leaving statistics and attribution in place. A serial run with Flush at
// each shard boundary is the exact reference for sharded cold-cache
// simulation: shard simulators merged with MergeFrom reproduce it to the
// byte (ReplRandom excepted — its draw stream survives a Flush but not a
// shard split).
func (m *MultiSim) Flush() {
	m.live()
	if m.kernel != nil {
		m.kernel.Flush()
	}
	for _, l1 := range m.ref {
		l1.Flush()
		if l2 := l1.Next(); l2 != nil {
			l2.Flush()
		}
	}
}

// NumConfigs returns how many configurations the simulator evaluates.
func (m *MultiSim) NumConfigs() int {
	m.live()
	return len(m.cfgs)
}

// Config returns configuration i.
func (m *MultiSim) Config(i int) cache.Config {
	m.live()
	return m.cfgs[i]
}

// Records returns how many trace records were fed (including records in
// windows that interval sampling skipped).
func (m *MultiSim) Records() int64 {
	m.live()
	return m.fed
}

// SimulatedRecords returns how many records reached the simulators.
func (m *MultiSim) SimulatedRecords() int64 {
	m.live()
	return m.simFed
}

// visitBlock is the kernel's per-block callback: it attributes the
// outcome for one kernel config using the resolution cached by apply.
func (m *MultiSim) visitBlock(cfg, set int, hit bool, evicted cache.OwnerID) {
	m.at[cfg].noteBlock(m.curVid, m.curFid, set, hit, m.curOwn, evicted)
}

// Feed simulates one trace record against every configuration. Loads
// access the caches once; stores likewise; modifies perform a read
// followed by a write (the two halves of the RMW). Other records are
// counted but do not touch the caches.
func (m *MultiSim) Feed(rec *trace.Record) {
	m.live()
	m.feed(rec)
}

// feed is Feed on a simulator known to be live.
func (m *MultiSim) feed(rec *trace.Record) {
	m.fed++
	if k := int64(m.sampling.Interval); k > 1 {
		if ((m.fed-1)/m.window)%k != 0 {
			return
		}
	}
	m.simFed++
	switch rec.Op {
	case trace.Load:
		m.apply(rec, cache.Read)
	case trace.Store:
		m.apply(rec, cache.Write)
	case trace.Modify:
		m.apply(rec, cache.Read)
		m.apply(rec, cache.Write)
	default:
		m.ignored++
	}
}

// apply resolves one access once — translation, variable, function — and
// drives every config through its engine. In StatsOnly mode symbol
// resolution is skipped entirely: owners only feed the conflict matrix,
// and cache statistics do not depend on them.
func (m *MultiSim) apply(rec *trace.Record, kind cache.Kind) {
	addr := rec.Addr
	if m.translate != nil {
		addr = m.translate(addr)
	}
	if m.statsOnly {
		if m.kernel != nil {
			m.kernel.Access(kind, addr, rec.Size, cache.NoOwner, nil)
		}
		for _, l1 := range m.ref {
			m.out = l1.Access(kind, addr, rec.Size, cache.NoOwner, m.out[:0])
		}
		return
	}
	vid, fid := m.resolve(rec)
	owner := cache.OwnerID(vid)
	if m.kernel != nil {
		m.curVid, m.curFid, m.curOwn = vid, fid, owner
		m.kernel.Access(kind, addr, rec.Size, owner, m.visitFn)
	}
	refAt := m.at[len(m.at)-len(m.ref):]
	for r, l1 := range m.ref {
		out := l1.Access(kind, addr, rec.Size, owner, m.out[:0])
		m.out = out
		// The ids and outcomes stay in locals here: read from fields inside
		// this loop they cost the reference engine about a tenth of its
		// speed.
		a := &refAt[r]
		vs := a.varAt(vid)
		fs := a.funcAt(fid)
		for i := range out {
			o := &out[i]
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
				a.bumpConflict(vid, o.EvictedOwner)
			}
		}
	}
}

// Process simulates a record slice.
func (m *MultiSim) Process(recs []trace.Record) {
	m.live()
	for i := range recs {
		m.feed(&recs[i])
	}
}

// ProcessSourceCtx is ProcessSource wrapped in a "dinero.simulate" span:
// when ctx carries a trace the span joins its tree, tagged with the fed
// record and configuration counts, and the per-name aggregate is recorded
// either way.
func (m *MultiSim) ProcessSourceCtx(ctx context.Context, src trace.RecordSource) error {
	sp, _ := telemetry.Default().StartSpanCtx(ctx, "dinero.simulate")
	err := m.ProcessSource(src)
	sp.SetAttr("records", strconv.FormatInt(m.Records(), 10))
	sp.SetAttr("configs", strconv.Itoa(m.NumConfigs()))
	sp.End()
	return err
}

// ProcessSource streams record batches from src until EOF, holding only
// one batch live at a time — the constant-memory ingestion path. Results
// are identical to Process over the materialized trace.
func (m *MultiSim) ProcessSource(src trace.RecordSource) error {
	m.live()
	for {
		batch, err := src.NextBatch()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		m.Process(batch)
	}
}

// Stats returns configuration i's raw L1 statistics: exact totals when
// sampling is off, the simulated windows' totals otherwise (see
// ScaledStats).
func (m *MultiSim) Stats(i int) cache.Stats {
	m.live()
	if l1 := m.l1Of(i); l1 != nil {
		return l1.Stats()
	}
	return m.kernel.Stats(m.slot[i])
}

// RecordScale is the interval-sampling expansion factor: records fed over
// records simulated (1 when off or nothing fed yet).
func (m *MultiSim) RecordScale() float64 {
	m.live()
	if m.sampling.Interval <= 1 || m.simFed == 0 {
		return 1
	}
	return float64(m.fed) / float64(m.simFed)
}

// ScaledStats estimates configuration i's full-trace statistics by scaling
// the raw counters by RecordScale(). With sampling off it returns the
// exact stats unchanged.
func (m *MultiSim) ScaledStats(i int) cache.Stats {
	return m.Stats(i).Scaled(m.RecordScale())
}

// MergeFrom folds another MultiSim's accumulated state into this one:
// per-config raw statistics at every level, full attribution
// (per-variable series with per-set counters, per-function stats,
// conflict matrices — matched by symbol name, as each side has a symbol
// table of its own) and record counters. It is the reduce step of
// sharded simulation: merging cold shards equals one serial run with
// Flush at each shard boundary. Both sides must have the same
// configurations in the same order on the same engines, and exact
// sampling; other is left unchanged and must not be fed concurrently.
func (m *MultiSim) MergeFrom(other *MultiSim) error {
	m.live()
	other.live()
	if len(m.cfgs) != len(other.cfgs) {
		return fmt.Errorf("dinero: merge of %d-config multisim into %d-config multisim", len(other.cfgs), len(m.cfgs))
	}
	if !m.sampling.Exact() || !other.sampling.Exact() {
		return fmt.Errorf("dinero: multisim merge requires exact sampling on both sides")
	}
	if m.statsOnly != other.statsOnly {
		return fmt.Errorf("dinero: multisim merge across stats-only modes")
	}
	for i := range m.cfgs {
		a, b := m.l1Of(i), other.l1Of(i)
		if (a == nil) != (b == nil) || a != nil && (a.Next() == nil) != (b.Next() == nil) {
			return fmt.Errorf("dinero: config %d runs on different engines or levels", i)
		}
		if m.cfgs[i].Sets() != other.cfgs[i].Sets() {
			return fmt.Errorf("dinero: config %d set counts differ (%d vs %d)", i, m.cfgs[i].Sets(), other.cfgs[i].Sets())
		}
	}
	for i, j := range m.slot {
		if l1 := m.l1Of(i); l1 != nil {
			o := other.l1Of(i)
			l1.MergeStats(o.Stats())
			if l1.Next() != nil {
				l1.Next().MergeStats(o.Next().Stats())
			}
		} else {
			m.kernel.MergeStats(j, other.kernel.Stats(j))
		}
		m.at[j].mergeFrom(&other.at[j])
	}
	m.fed += other.fed
	m.simFed += other.simFed
	m.ignored += other.ignored
	return nil
}

// Vars returns configuration i's per-variable series, sorted by
// descending access count, then name.
func (m *MultiSim) Vars(i int) []*VarSeries {
	m.live()
	return m.at[m.slot[i]].vars()
}

// Funcs returns configuration i's per-function stats, sorted by
// descending access count.
func (m *MultiSim) Funcs(i int) []*FuncStats {
	m.live()
	return m.at[m.slot[i]].funcs(nil)
}

// Conflicts returns configuration i's eviction matrix, sorted by
// descending count.
func (m *MultiSim) Conflicts(i int) []Conflict {
	m.live()
	return m.at[m.slot[i]].conflictList()
}

// Report renders configuration i's full text report: overall
// DineroIV-style statistics, per-function and per-variable tables, and
// the conflict matrix. In exact mode it is byte-identical to the report
// of an independent Simulator run of the same config over the same
// records, whichever engine runs either. The tables are sorted first, in
// storage the next report reuses, so the report is written once into a
// buffer sized from their rows.
func (m *MultiSim) Report(i int) string {
	m.live()
	cfg, a := m.cfgs[i], &m.at[m.slot[i]]
	var l2 *cache.Cache
	if l1 := m.l1Of(i); l1 != nil {
		l2 = l1.Next()
	}
	r := &m.reportRows
	r.funcs, r.vars, r.conflicts = a.funcs(r.funcs), a.sortedVars(r.vars), a.sortedConflicts(r.conflicts)
	funcs, vars, conflicts := r.funcs, r.vars, r.conflicts
	n := reportFixedBytes + cache.ReportBytes
	if l2 != nil {
		n += cache.ReportBytes
	}
	for _, fs := range funcs {
		n += reportRowBytes + max(len(fs.Name), 24)
	}
	for _, vs := range vars {
		n += reportRowBytes + max(len(vs.Name), 24)
	}
	for _, c := range conflicts {
		n += conflictRowBytes + max(len(a.syms.name(c.evictor)), 24) + max(len(a.syms.name(c.victim)), 24)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString("---Simulation begins.\n")
	fmt.Fprintf(&b, "l1-dcache: %d bytes, %d-byte blocks, %d-way, %s replacement, %s, %s\n",
		cfg.Size, cfg.BlockSize, displayAssoc(cfg), cfg.Repl, cfg.Write, cfg.Alloc)
	m.Stats(i).WriteReport(&b, "l1-data")
	if l2 != nil {
		l2.Stats().WriteReport(&b, "l2-unified")
	}

	b.WriteString("\nPer-function statistics\n")
	b.WriteString(funcHeader)
	for _, fs := range funcs {
		writeReportRow(&b, fs.Name, fs.Accesses, fs.Hits, fs.Misses)
	}

	b.WriteString("\nPer-variable statistics\n")
	b.WriteString(varHeader)
	for _, vs := range vars {
		writeReportRow(&b, vs.Name, vs.Accesses, vs.Hits, vs.Misses)
	}

	if len(conflicts) > 0 {
		b.WriteString("\nStructure conflicts (evictor ← victim)\n")
		for _, c := range conflicts {
			writeConflictRow(&b, a.syms.name(c.evictor), a.syms.name(c.victim), c.count)
		}
	}
	b.WriteString("---Simulation complete.\n")
	return b.String()
}

// Report sizes, in bytes: the lines every report has besides the cache
// statistics and the rows (the config line with room for its numbers),
// and a table row or a conflict row besides its padded names. A count
// wider than its column makes the buffer grow once.
const (
	reportFixedBytes = 384
	reportRowBytes   = 1 + 3*11 + 8 + 2 // " ", 3 × " %10d", " %7.2f", "%\n"
	conflictRowBytes = 1 + 9 + 9 + 7    // " ", " evicted ", " %8d", " times\n"
)

// The column headers of the per-function and per-variable tables.
var (
	funcHeader = fmt.Sprintf(" %-24s %10s %10s %10s %8s\n", "function", "accesses", "hits", "misses", "miss%")
	varHeader  = fmt.Sprintf(" %-24s %10s %10s %10s %8s\n", "variable", "accesses", "hits", "misses", "miss%")
)

// writeReportRow writes one row of a per-function or per-variable table,
// as fmt's " %-24s %10d %10d %10d %7.2f%%\n" would, without boxing its
// arguments.
func writeReportRow(b *strings.Builder, name string, acc, hits, misses int64) {
	var buf [32]byte
	b.WriteByte(' ')
	writePadded(b, name, 24)
	for _, v := range [3]int64{acc, hits, misses} {
		writeRight(b, strconv.AppendInt(buf[:0], v, 10), 10)
	}
	writeRight(b, strconv.AppendFloat(buf[:0], pct(misses, acc), 'f', 2, 64), 7)
	b.WriteString("%\n")
}

// writeConflictRow writes one row of the conflict matrix, as fmt's
// " %-24s evicted %-24s %8d times\n" would.
func writeConflictRow(b *strings.Builder, evictor, victim string, count int64) {
	var buf [20]byte
	b.WriteByte(' ')
	writePadded(b, evictor, 24)
	b.WriteString(" evicted ")
	writePadded(b, victim, 24)
	writeRight(b, strconv.AppendInt(buf[:0], count, 10), 8)
	b.WriteString(" times\n")
}

// writePadded writes s left-aligned in a column of w runes, as fmt's %-*s.
func writePadded(b *strings.Builder, s string, w int) {
	b.WriteString(s)
	for n := utf8.RuneCountInString(s); n < w; n++ {
		b.WriteByte(' ')
	}
}

// writeRight writes a space, then the number p right-aligned in a column
// of w bytes, as fmt's " %*d" and " %*.*f" do.
func writeRight(b *strings.Builder, p []byte, w int) {
	b.WriteByte(' ')
	for n := len(p); n < w; n++ {
		b.WriteByte(' ')
	}
	b.Write(p)
}

// PageAllocs returns how many series pages all configs counted in, new or
// recycled.
func (m *MultiSim) PageAllocs() int64 {
	m.live()
	var n int64
	for i := range m.at {
		n += m.at[i].pageAllocs()
	}
	return n
}

// PublishTelemetry adds the run's totals to reg. It is a cold-path
// publish — the per-access loop stays untouched — so callers invoke it
// once per finished simulation. The dinero.* counters accumulate as if
// each configuration had been an independent simulation, so downstream
// invariants (records_in == records_simulated) hold unchanged; the
// multisim.* counters expose the sharing. multisim.config_records
// (records × configs, summed per run) equals multisim.per_config_records
// (what the configs consumed) by construction, as every config consumes
// the one record loop's stream; tools/metricscheck checks it.
func (m *MultiSim) PublishTelemetry(reg *telemetry.Registry) {
	m.live()
	n := int64(len(m.cfgs))
	reg.Counter("multisim.runs").Inc()
	reg.Counter("multisim.configs").Add(n)
	reg.Counter("multisim.records").Add(m.fed)
	reg.Counter("multisim.records_sampled").Add(m.simFed)
	reg.Counter("multisim.config_records").Add(m.simFed * n)
	reg.Counter("multisim.per_config_records").Add(m.simFed * n)

	reg.Counter("dinero.sims").Add(n)
	reg.Counter("dinero.records_simulated").Add(m.simFed * n)
	reg.Counter("dinero.records_ignored").Add(m.ignored * n)
	var acc, hits, misses int64
	for i := range m.cfgs {
		st := m.Stats(i)
		acc += st.Accesses()
		hits += st.Hits()
		misses += st.Misses()
	}
	reg.Counter("dinero.accesses").Add(acc)
	reg.Counter("dinero.hits").Add(hits)
	reg.Counter("dinero.misses").Add(misses)
	reg.Counter("dinero.page_allocs").Add(m.PageAllocs())

	if !m.sampling.Exact() {
		reg.Gauge("multisim.sample_interval").Set(int64(m.sampling.Interval))
		reg.Gauge("multisim.sample_window").Set(m.window)
		if m.fed > 0 {
			reg.Gauge("multisim.record_coverage_pct").Set(100 * m.simFed / m.fed)
		}
	}
}
