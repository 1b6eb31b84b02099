package experiments

import (
	"context"
	"fmt"
	"strings"

	"tracedst/internal/cache"
	"tracedst/internal/dinero"
	"tracedst/internal/simcache"
	"tracedst/internal/telemetry"
	"tracedst/internal/trace"
)

// SweepPoint is one cache size of a layout sweep.
type SweepPoint struct {
	CacheBytes int64
	// MissesOrig / MissesXform are total L1 misses of the original and
	// transformed traces.
	MissesOrig  int64
	MissesXform int64
}

// Sweep compares a transformation across cache sizes — the "who wins
// where" view the paper's single-geometry figures cannot show.
type SweepResult struct {
	ID    string
	Title string
	// Geometry note (block size, associativity).
	Geometry string
	Points   []SweepPoint
	// Sampling and Shards are the run's approximations, zero for an exact
	// serial run; Table names them under the title.
	Sampling dinero.Sampling
	Shards   int
}

// Winner reports which side has fewer misses at each size: '<' orig wins,
// '>' transformed wins, '=' tie.
func (s *SweepResult) Winner(i int) byte {
	p := s.Points[i]
	switch {
	case p.MissesOrig < p.MissesXform:
		return '<'
	case p.MissesOrig > p.MissesXform:
		return '>'
	default:
		return '='
	}
}

// Table renders the sweep. A sampled or sharded run says so in one line
// under the title.
func (s *SweepResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (%s)\n", s.ID, s.Title, s.Geometry)
	switch {
	case !s.Sampling.Exact():
		fmt.Fprintf(&b, "sampled estimate (interval %d, window %d); no error bound claimed\n", s.Sampling.Interval, s.Sampling.WindowLen())
	case s.Shards > 1:
		fmt.Fprintln(&b, dinero.ShardNote(s.Shards))
	}
	fmt.Fprintf(&b, "%-12s %14s %14s  %s\n", "cache bytes", "orig misses", "xform misses", "winner")
	for i, p := range s.Points {
		var who string
		switch s.Winner(i) {
		case '>':
			who = "transformed"
		case '<':
			who = "original"
		default:
			who = "tie"
		}
		fmt.Fprintf(&b, "%-12d %14d %14d  %s\n", p.CacheBytes, p.MissesOrig, p.MissesXform, who)
	}
	return b.String()
}

// DefaultSweepSizes are the cache sizes swept (32-byte blocks, direct
// mapped unless noted).
var DefaultSweepSizes = []int64{256, 512, 1024, 2048, 4096, 8192, 16384, 32768}

// simChunk is how many records a sweep simulation processes between
// context polls — small enough that a deadline or SIGINT interrupts a
// simulation within microseconds, large enough to stay invisible in the
// profile.
const simChunk = 1 << 16

// missesAt is the per-config engine: one full Simulator per (size, side)
// simulation. The sweeps no longer run on it — sweepMisses evaluates all
// sizes in one pass — but it remains the reference and the benchmark
// baseline the single-pass engine is gated against (BENCH_multisim.json).
// It simulates recs in chunks, polling ctx between chunks so a
// per-task deadline or a cancelled run stops mid-simulation instead of
// after it. Completed simulations publish their counters (records in and
// simulated, outcomes, page allocations) to the default registry — after
// the hot loop, so the per-access path stays allocation-free.
func missesAt(ctx context.Context, recs []trace.Record, cfg cache.Config) (int64, error) {
	sim, err := dinero.New(dinero.Options{L1: cfg})
	if err != nil {
		return 0, err
	}
	for start := 0; start < len(recs); start += simChunk {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		end := start + simChunk
		if end > len(recs) {
			end = len(recs)
		}
		sim.Process(recs[start:end])
	}
	reg := telemetry.Default()
	reg.Counter("experiments.records_in").Add(int64(len(recs)))
	sim.PublishTelemetry(reg)
	return sim.L1().Stats().Misses(), nil
}

// sweepMisses is the single-pass engine: every cache size of a sweep side
// evaluated in one traversal of the record slice via dinero.MultiSim in
// stats-only mode (the sweep consumes miss totals; attribution would be
// pure overhead). Exact-mode results are identical to missesAt per config;
// with sampling the returned misses are scaled estimates. Chunked like
// missesAt so cancellation interrupts mid-trace.
func sweepMisses(ctx context.Context, recs []trace.Record, cfgs []cache.Config, sm dinero.Sampling) ([]int64, error) {
	ms, err := dinero.NewMulti(dinero.MultiOptions{
		Configs: cfgs, Sampling: sm, StatsOnly: true,
	})
	if err != nil {
		return nil, err
	}
	defer ms.Release()
	for start := 0; start < len(recs); start += simChunk {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		end := start + simChunk
		if end > len(recs) {
			end = len(recs)
		}
		ms.Process(recs[start:end])
	}
	reg := telemetry.Default()
	reg.Counter("experiments.records_in").Add(ms.SimulatedRecords() * int64(len(cfgs)))
	ms.PublishTelemetry(reg)
	out := make([]int64, len(cfgs))
	for i := range cfgs {
		out[i] = ms.ScaledStats(i).Misses()
	}
	return out, nil
}

// sweepMissesSharded is the sharded single-pass engine: the record slice
// splits into contiguous ranges, each range simulates on its own cold
// MultiSim concurrently, and the shards reduce with MultiSim.MergeFrom
// (dinero.MultiSimShardedRecords). The merged misses equal a serial
// sweepMisses run that calls Flush at every shard boundary (see
// dinero.MultiSim.Flush for why — replacement decisions compare stamps,
// which survive the merge). Exact sampling only.
func sweepMissesSharded(ctx context.Context, recs []trace.Record, cfgs []cache.Config, shards int) ([]int64, error) {
	if shards > len(recs) {
		shards = len(recs)
	}
	if shards < 2 || len(recs) == 0 {
		return sweepMisses(ctx, recs, cfgs, dinero.Sampling{})
	}
	res, err := dinero.MultiSimShardedRecords(ctx, recs, dinero.MultiOptions{Configs: cfgs, StatsOnly: true}, shards)
	if err != nil {
		return nil, err
	}
	defer res.Sim.Release()
	reg := telemetry.Default()
	reg.Counter("experiments.records_in").Add(res.Sim.SimulatedRecords() * int64(len(cfgs)))
	res.PublishShardTelemetry(reg)
	reg.Counter("experiments.sharded_sweeps").Inc()
	reg.Counter("experiments.sweep_shards").Add(int64(res.Shards))
	out := make([]int64, len(cfgs))
	for ci := range cfgs {
		out[ci] = res.Sim.Stats(ci).Misses()
	}
	return out, nil
}

// samplingKeySuffix distinguishes sampled results from exact ones — an
// estimate must never be replayed as an exact result or vice versa.
func samplingKeySuffix(sm dinero.Sampling) string {
	if sm.Exact() {
		return ""
	}
	return fmt.Sprintf("@int%d-win%d", sm.Interval, sm.WindowLen())
}

// runKeySuffix is the result tier of a run's keys: sampling parameters
// and/or shard count. Sharded results equal a flush-at-boundary serial
// run, not a plain one, so they must not replay into (or from) unsharded
// entries.
func runKeySuffix(opts RunOptions) string {
	s := samplingKeySuffix(opts.Sampling)
	if opts.Shards > 1 {
		s += fmt.Sprintf("@shards%d", opts.Shards)
	}
	return s
}

// sweepSpec declares one layout sweep: which traces to compare, at which
// sizes, on which geometry. Every (size, side) pair is an independent
// simulation, which is what the parallel runner fans out.
type sweepSpec struct {
	id       string
	title    string
	geometry string
	sizes    []int64
	config   func(size int64) cache.Config
	orig     *memoTrace
	xform    *memoTrace
}

func directMapped(size int64) cache.Config {
	return cache.Config{Size: size, BlockSize: 32, Assoc: 1}
}

// sweepSpecs lists all layout sweeps in presentation order.
func sweepSpecs() []sweepSpec {
	return []sweepSpec{
		{
			id: "sweep-t1", title: "SoA (orig) vs AoS (transformed)",
			geometry: "32-byte blocks, 1-way, LRU",
			sizes:    DefaultSweepSizes, config: directMapped,
			orig: t1Trace, xform: t1Xform,
		},
		{
			id: "sweep-t2", title: "inline nested (orig) vs outlined (transformed)",
			geometry: "32-byte blocks, 1-way, LRU",
			sizes:    DefaultSweepSizes, config: directMapped,
			orig: t2Trace, xform: t2Xform,
		},
		// Transformation 2 under its intended access pattern: a loop
		// touching only the hot member. The full-touch sweeps honestly
		// show the transformations losing (padding and indirection cost
		// extra blocks when every member is touched once); outlining pays
		// off when the cold members stay cold.
		{
			id: "sweep-t2-hot", title: "hot-only loop: inline (orig) vs outlined (transformed)",
			geometry: "32-byte blocks, 1-way, LRU",
			sizes:    DefaultSweepSizes, config: directMapped,
			orig: t2HotTrace, xform: t2HotXform,
		},
		{
			id: "sweep-t3", title: "contiguous (orig) vs set-pinned (transformed)",
			geometry: "32-byte blocks, 64-way, round-robin",
			sizes:    []int64{4096, 8192, 16384, 32768, 65536},
			config: func(size int64) cache.Config {
				return cache.Config{Size: size, BlockSize: 32, Assoc: 64, Repl: cache.ReplRoundRobin}
			},
			orig: t3Trace, xform: t3Xform,
		},
	}
}

// sweepSides names the two halves of a sweep point in task names and
// error reports.
var sweepSides = [2]string{"orig", "xform"}

// runSweeps simulates the given specs' sweep points on a worker pool. Each
// task is one (spec, orig-or-xform) side: all of its cache sizes are
// evaluated in a single pass over the shared immutable record slice by the
// multi-config engine, so a full run touches each trace exactly twice (its
// two sides) instead of once per size. Results land in pre-assigned slots,
// so the output is byte-identical whatever the worker count. With a store,
// each point is looked up once by its content key — trace hash, config,
// result tier, engine version — and only the missing sizes are simulated
// (configs are independent, so a subset pass produces identical numbers)
// and stored. On error the partially-filled results are returned
// alongside it: completed points are valid (and, with a store, already
// safe on disk).
func runSweeps(ctx context.Context, specs []sweepSpec, opts RunOptions) ([]*SweepResult, error) {
	if opts.Shards > 1 && !opts.Sampling.Exact() {
		return nil, fmt.Errorf("experiments: sharding and sampling cannot combine (interval windows depend on global record position)")
	}
	out := make([]*SweepResult, len(specs))
	type task struct{ spec, side int }
	var tasks []task
	for si, sp := range specs {
		r := &SweepResult{ID: sp.id, Title: sp.title, Geometry: sp.geometry,
			Points: make([]SweepPoint, len(sp.sizes)), Sampling: opts.Sampling, Shards: opts.Shards}
		for pi, size := range sp.sizes {
			r.Points[pi].CacheBytes = size
		}
		tasks = append(tasks, task{si, 0}, task{si, 1})
		out[si] = r
	}
	// Keys carry the run's tier, so sampled, sharded and exact results
	// never cross.
	tier := runKeySuffix(opts)
	set := func(tk task, pi int, m int64) {
		if tk.side == 0 {
			out[tk.spec].Points[pi].MissesOrig = m
		} else {
			out[tk.spec].Points[pi].MissesXform = m
		}
	}
	name := func(ti int) string {
		tk := tasks[ti]
		return fmt.Sprintf("sweep/%s/%s", specs[tk.spec].id, sweepSides[tk.side])
	}
	err := forEachPolicy(ctx, opts.Policy, opts.workerCount(), len(tasks), name, func(ctx context.Context, ti int) error {
		tk := tasks[ti]
		sp := specs[tk.spec]
		side := sp.orig
		if tk.side == 1 {
			side = sp.xform
		}
		recs, err := side.get()
		if err != nil {
			return err
		}
		var key func(pi int) simcache.Key
		if opts.Store != nil {
			traceHash := side.contentHash()
			key = func(pi int) simcache.Key {
				return simcache.Key{
					Trace:    traceHash,
					Config:   simcache.ConfigSig(sp.config(sp.sizes[pi])),
					Sampling: tier,
					Engine:   simcache.EngineVersion,
				}
			}
		}
		missing := make([]int, 0, len(sp.sizes))
		for pi := range sp.sizes {
			if key != nil {
				e, ok, err := opts.Store.Result(key(pi))
				if err != nil {
					return err
				}
				if ok {
					set(tk, pi, e.Misses)
					continue
				}
			}
			missing = append(missing, pi)
		}
		if len(missing) == 0 {
			return nil
		}
		cfgs := make([]cache.Config, len(missing))
		for i, pi := range missing {
			cfgs[i] = sp.config(sp.sizes[pi])
		}
		var misses []int64
		if opts.Shards > 1 {
			misses, err = sweepMissesSharded(ctx, recs, cfgs, opts.Shards)
		} else {
			misses, err = sweepMisses(ctx, recs, cfgs, opts.Sampling)
		}
		if err != nil {
			return err
		}
		for i, pi := range missing {
			set(tk, pi, misses[i])
			if key != nil {
				if err := opts.Store.PutResult(key(pi), simcache.Entry{
					Records: int64(len(recs)), Misses: misses[i],
				}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return out, err
}

// Sweeps runs all layout sweeps under run options: the context cancels
// the run (SIGINT wiring lives in cmd/experiments), the policy shapes
// per-task failure handling, and a non-nil store makes the run
// crash-resumable. Each workload is traced and transformed exactly once;
// results are identical for any worker count. On error, the partial
// results computed (or restored) so far are returned with it — in
// KeepGoing mode the error is a TaskErrors listing every failed
// simulation while the rest completed.
func Sweeps(ctx context.Context, opts RunOptions) ([]*SweepResult, error) {
	return runSweeps(ctx, sweepSpecs(), opts)
}
