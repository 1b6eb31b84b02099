package dinero

import (
	"context"
	"fmt"
	"io"
	"strconv"

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
	// L2, when non-nil, adds the same second level behind every config
	// (forces the full per-config simulator path).
	L2 *cache.Config
	// Translate maps virtual addresses before they reach any cache; it
	// runs once per record, shared by every configuration.
	Translate func(uint64) uint64
	// Syms is the shared intern table (see Options.Syms).
	Syms *trace.SymTab
	// Sampling selects the approximation tier; zero value is exact.
	Sampling Sampling
	// StatsOnly skips per-variable/per-function attribution and the
	// conflict matrix for fast-kernel configs, collecting cache-level
	// statistics only — the sweep engine's mode, where only miss totals
	// are consumed and symbol resolution would be pure overhead. Reports
	// and Vars/Funcs/Conflicts for fast configs come back empty; cache
	// statistics are unaffected and remain exact.
	StatsOnly bool
}

// MultiSim evaluates N cache configurations over one pass of a trace.
// Record iteration, op dispatch, address translation and symbol resolution
// happen once per record; each configuration then updates its own state.
// Configurations inside the fast-kernel envelope (single-level, no
// prefetch, no classification) share cache.MultiSim's flat state; the rest
// fall back to full Simulators behind the same front end. Exact-mode
// results are byte-identical to N independent Simulator runs — Report(i)
// renders through the same code path over the same counters.
type MultiSim struct {
	cfgs     []cache.Config
	syms     *trace.SymTab
	trustIDs bool
	nosymID  trace.SymID

	translate func(uint64) uint64
	sampling  Sampling
	window    int64
	statsOnly bool

	// kernel covers the fast configs; kernelIdx maps kernel slot -> global
	// config index and kernelAt holds their attribution state.
	kernel    *cache.MultiSim
	kernelIdx []int
	kernelAt  []attrib
	visitFn   cache.MultiVisit

	// subs are the fallback full simulators; subIdx maps sub -> global
	// config index. slot maps global index -> (isKernel, local index).
	subs   []*Simulator
	subIdx []int
	slot   []multiSlot

	// Per-record resolution shared by every kernel config via visitFn.
	curVid trace.SymID
	curFid trace.SymID
	curOwn cache.OwnerID

	fed     int64 // records seen (including skipped windows)
	simFed  int64 // records in simulated windows
	ignored int64 // non-memory ops in simulated windows
}

type multiSlot struct {
	kernel bool
	idx    int
}

// NewMulti builds a multi-configuration simulator.
func NewMulti(opts MultiOptions) (*MultiSim, error) {
	if len(opts.Configs) == 0 {
		return nil, fmt.Errorf("dinero: NewMulti needs at least one config")
	}
	sm := opts.Sampling
	if sm.Interval < 0 || sm.Window < 0 {
		return nil, fmt.Errorf("dinero: negative sampling parameter")
	}
	syms := opts.Syms
	trust := syms != nil
	if syms == nil {
		syms = trace.NewSymTab()
	}
	m := &MultiSim{
		cfgs:      append([]cache.Config(nil), opts.Configs...),
		syms:      syms,
		trustIDs:  trust,
		nosymID:   syms.Intern(NoSymbol),
		translate: opts.Translate,
		sampling:  sm,
		window:    int64(sm.WindowLen()),
		slot:      make([]multiSlot, len(opts.Configs)),
	}
	var fast []cache.Config
	for i, cfg := range opts.Configs {
		if opts.L2 == nil && cache.CanMulti(cfg) == nil {
			m.slot[i] = multiSlot{kernel: true, idx: len(fast)}
			fast = append(fast, cfg)
			m.kernelIdx = append(m.kernelIdx, i)
			continue
		}
		sub, err := New(Options{L1: cfg, L2: opts.L2, Translate: opts.Translate, Syms: opts.Syms})
		if err != nil {
			return nil, fmt.Errorf("dinero: config %d: %w", i, err)
		}
		m.slot[i] = multiSlot{idx: len(m.subs)}
		m.subs = append(m.subs, sub)
		m.subIdx = append(m.subIdx, i)
	}
	if len(fast) > 0 {
		kernel, err := cache.NewMultiSim(fast, 0)
		if err != nil {
			return nil, err
		}
		m.kernel = kernel
		m.kernelAt = make([]attrib, len(fast))
		for ki, cfg := range fast {
			m.kernelAt[ki] = newAttrib(syms, cfg.Sets())
		}
		if !opts.StatsOnly {
			m.visitFn = m.visitBlock
		}
	}
	m.statsOnly = opts.StatsOnly
	return m, nil
}

// Flush invalidates every configuration's cache lines (kernel and
// fallback simulators alike), leaving statistics in place — the reference
// boundary operation for sharded simulation (see Simulator.Flush).
func (m *MultiSim) Flush() {
	if m.kernel != nil {
		m.kernel.Flush()
	}
	for _, sub := range m.subs {
		sub.Flush()
	}
}

// NumConfigs returns how many configurations the simulator evaluates.
func (m *MultiSim) NumConfigs() int { return len(m.cfgs) }

// Config returns configuration i.
func (m *MultiSim) Config(i int) cache.Config { return m.cfgs[i] }

// Records returns how many trace records were fed (including records in
// windows that interval sampling skipped).
func (m *MultiSim) Records() int64 { return m.fed }

// SimulatedRecords returns how many records reached the simulators.
func (m *MultiSim) SimulatedRecords() int64 { return m.simFed }

// visitBlock is the kernel's per-block callback: it attributes the
// outcome for one fast config using the record resolution cached by apply.
func (m *MultiSim) visitBlock(cfg, set int, hit bool, evicted cache.OwnerID) {
	m.kernelAt[cfg].noteBlock(m.curVid, m.curFid, set, hit, m.curOwn, evicted)
}

func (m *MultiSim) varID(rec *trace.Record) trace.SymID {
	if !rec.HasSym {
		return m.nosymID
	}
	if m.trustIDs && rec.VarID != 0 {
		return rec.VarID
	}
	return m.syms.Intern(rec.Var.Root)
}

func (m *MultiSim) funcID(rec *trace.Record) trace.SymID {
	if m.trustIDs && rec.FuncID != 0 {
		return rec.FuncID
	}
	return m.syms.Intern(rec.Func)
}

// Feed simulates one trace record against every configuration.
func (m *MultiSim) Feed(rec *trace.Record) {
	m.fed++
	if k := int64(m.sampling.Interval); k > 1 {
		if ((m.fed-1)/m.window)%k != 0 {
			return
		}
	}
	m.simFed++
	for _, sub := range m.subs {
		sub.Feed(rec)
	}
	if m.kernel == nil {
		switch rec.Op {
		case trace.Load, trace.Store, trace.Modify:
		default:
			m.ignored++
		}
		return
	}
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

// apply resolves a record once — translation, variable, function — and
// drives every fast config through the kernel. In StatsOnly mode symbol
// resolution is skipped entirely: owners only feed the conflict matrix,
// and cache statistics do not depend on them.
func (m *MultiSim) apply(rec *trace.Record, kind cache.Kind) {
	addr := rec.Addr
	if m.translate != nil {
		addr = m.translate(addr)
	}
	if m.statsOnly {
		m.kernel.Access(kind, addr, rec.Size, cache.NoOwner, nil)
		return
	}
	m.curVid = m.varID(rec)
	m.curFid = m.funcID(rec)
	m.curOwn = cache.OwnerID(m.curVid)
	m.kernel.Access(kind, addr, rec.Size, m.curOwn, m.visitFn)
}

// Process simulates a record slice.
func (m *MultiSim) Process(recs []trace.Record) {
	for i := range recs {
		m.Feed(&recs[i])
	}
}

// ProcessSourceCtx is ProcessSource wrapped in a "dinero.simulate" span,
// the name Simulator.ProcessSourceCtx uses too, so the simulate layer has
// one name whichever engine runs. When ctx carries a trace the span joins
// its tree, tagged with the fed record and configuration counts.
func (m *MultiSim) ProcessSourceCtx(ctx context.Context, src trace.RecordSource) error {
	sp, _ := telemetry.Default().StartSpanCtx(ctx, "dinero.simulate")
	err := m.ProcessSource(src)
	sp.SetAttr("records", strconv.FormatInt(m.Records(), 10))
	sp.SetAttr("configs", strconv.Itoa(m.NumConfigs()))
	sp.End()
	return err
}

// ProcessSource streams record batches from src until EOF, holding only
// one batch live at a time. Results are identical to Process over the
// materialized trace.
func (m *MultiSim) ProcessSource(src trace.RecordSource) error {
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
	s := m.slot[i]
	if s.kernel {
		return m.kernel.Stats(s.idx)
	}
	return m.subs[s.idx].L1().Stats()
}

// RecordScale is the interval-sampling expansion factor: records fed over
// records simulated (1 when off or nothing fed yet).
func (m *MultiSim) RecordScale() float64 {
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
// per-config raw statistics, full attribution (per-variable series,
// per-function stats, conflict matrices — matched by symbol name, so the
// two sides may use different intern tables) and record counters. It is
// the reduce step of sharded multi-config simulation: merging cold shards
// equals one serial run with Flush at each shard boundary. Both sides
// must have the same configurations in the same order and exact sampling;
// other is left unchanged and must not be fed concurrently.
func (m *MultiSim) MergeFrom(other *MultiSim) error {
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
		if m.slot[i] != other.slot[i] {
			return fmt.Errorf("dinero: config %d runs on different engines (kernel vs fallback)", i)
		}
		if m.cfgs[i].Sets() != other.cfgs[i].Sets() {
			return fmt.Errorf("dinero: config %d set counts differ (%d vs %d)", i, m.cfgs[i].Sets(), other.cfgs[i].Sets())
		}
	}
	for ki := range m.kernelIdx {
		m.kernel.MergeStats(ki, other.kernel.Stats(ki))
		m.kernelAt[ki].mergeFrom(&other.kernelAt[ki])
	}
	for si := range m.subs {
		if err := m.subs[si].MergeFrom(other.subs[si]); err != nil {
			return err
		}
	}
	m.fed += other.fed
	m.simFed += other.simFed
	m.ignored += other.ignored
	return nil
}

// Vars returns configuration i's per-variable series (sorted as
// Simulator.Vars).
func (m *MultiSim) Vars(i int) []*VarSeries {
	s := m.slot[i]
	if s.kernel {
		return m.kernelAt[s.idx].vars()
	}
	return m.subs[s.idx].Vars()
}

// Funcs returns configuration i's per-function stats.
func (m *MultiSim) Funcs(i int) []*FuncStats {
	s := m.slot[i]
	if s.kernel {
		return m.kernelAt[s.idx].funcs()
	}
	return m.subs[s.idx].Funcs()
}

// Conflicts returns configuration i's eviction matrix.
func (m *MultiSim) Conflicts(i int) []Conflict {
	s := m.slot[i]
	if s.kernel {
		return m.kernelAt[s.idx].conflictList()
	}
	return m.subs[s.idx].Conflicts()
}

// Report renders configuration i's full text report. In exact mode it is
// byte-identical to the report of an independent Simulator run of the same
// config over the same records.
func (m *MultiSim) Report(i int) string {
	s := m.slot[i]
	if s.kernel {
		return renderReport(m.cfgs[i], m.kernel.Stats(s.idx), nil, &m.kernelAt[s.idx])
	}
	return m.subs[s.idx].Report()
}

// PageAllocs returns the lazily allocated series pages across all configs.
func (m *MultiSim) PageAllocs() int64 {
	var n int64
	for i := range m.kernelAt {
		n += m.kernelAt[i].pageAllocs()
	}
	for _, sub := range m.subs {
		n += sub.PageAllocs()
	}
	return n
}

// PublishTelemetry adds the run's totals to reg. The dinero.* counters
// accumulate as if each configuration had been an independent simulation,
// so downstream invariants (records_in == records_simulated) hold
// unchanged; the multisim.* counters expose the sharing:
// multisim.config_records (records × configs, summed per run) must equal
// multisim.per_config_records (what each config actually consumed) —
// tools/metricscheck enforces it.
func (m *MultiSim) PublishTelemetry(reg *telemetry.Registry) {
	n := int64(len(m.cfgs))
	reg.Counter("multisim.runs").Inc()
	reg.Counter("multisim.configs").Add(n)
	reg.Counter("multisim.records").Add(m.fed)
	reg.Counter("multisim.records_sampled").Add(m.simFed)
	reg.Counter("multisim.config_records").Add(m.simFed * n)
	perCfg := m.simFed * int64(len(m.kernelIdx))
	for _, sub := range m.subs {
		perCfg += sub.Records()
	}
	reg.Counter("multisim.per_config_records").Add(perCfg)

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
