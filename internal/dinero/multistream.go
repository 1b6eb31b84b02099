// Sharded simulation: the full-attribution MultiSim engine split over N
// workers, each simulating a disjoint slice of the trace on its own cold
// MultiSim, reduced with MultiSim.MergeFrom. One runner serves both
// inputs — block ranges of an indexed binary trace, decoded straight out
// of the mmap, and windows of an in-memory record slice — and a
// single-config run is a one-config MultiSim. The merged result equals a
// serial run with Flush at every shard boundary — byte-identical reports
// in exact mode (ReplRandom excepted: its draw stream survives a Flush
// but cannot survive a shard split).
package dinero

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"tracedst/internal/telemetry"
	"tracedst/internal/trace"
)

// MultiShardedResult is the merged outcome of a sharded multi-config run.
type MultiShardedResult struct {
	// Sim holds the merged statistics and attribution for every config;
	// its Report(i) is the flush-at-boundary reference output.
	Sim *MultiSim
	// Requested is the shard count asked for (after the <1 → GOMAXPROCS
	// default); Shards is how many actually ran, clamped to the available
	// block or record count (0 for an empty trace).
	Requested int
	Shards    int
	// Boundaries are the record indices where shards split — the Flush
	// points a serial reference run must use to reproduce Sim exactly.
	Boundaries []int64
}

// MultiSimSharded streams an indexed binary trace through min(shards,
// blocks) workers over disjoint block ranges, each feeding a cold
// MultiSim, and merges the shards (each shard interns privately;
// MergeFrom matches attribution by symbol name). opts.Translate must be
// nil (one page map cannot serve concurrent shards), and opts.Sampling
// must be exact — interval sampling is
// stateful across the whole record stream and cannot split. dec carries
// the lenient/strict decode semantics applied per shard.
func MultiSimSharded(tr *trace.IndexedTrace, opts MultiOptions, shards int, dec trace.DecodeOptions) (*MultiShardedResult, error) {
	return MultiSimShardedContext(context.Background(), tr, opts, shards, dec)
}

// MultiSimShardedContext is MultiSimSharded under a context: every shard
// polls ctx between record batches, so cancellation (SIGINT/SIGTERM in
// cmd/dinero and cmd/experiments) stops all workers within one batch and
// surfaces ctx.Err(). An interrupted run returns no partial result —
// callers resume by re-running, which is cheap because shards are
// deterministic.
func MultiSimShardedContext(ctx context.Context, tr *trace.IndexedTrace, opts MultiOptions, shards int, dec trace.DecodeOptions) (*MultiShardedResult, error) {
	requested, err := checkMultiShard(&opts, &shards)
	if err != nil {
		return nil, err
	}
	ranges := tr.ShardRanges(shards)
	srcs := make([]trace.RecordSource, len(ranges))
	for i, r := range ranges {
		srcs[i] = tr.Source(r[0], r[1], dec)
	}
	return runShards(ctx, srcs, opts, requested)
}

// MultiSimShardedRecords is the in-memory variant: the record slice is
// split into min(shards, len(recs)) contiguous windows, each simulated on
// a cold MultiSim, and the shards merge. It backs the experiments sweeps
// and figure regeneration, where traces are already materialized. Same
// constraints as MultiSimSharded: nil Translate, exact sampling.
func MultiSimShardedRecords(ctx context.Context, recs []trace.Record, opts MultiOptions, shards int) (*MultiShardedResult, error) {
	requested, err := checkMultiShard(&opts, &shards)
	if err != nil {
		return nil, err
	}
	shards = min(shards, len(recs))
	srcs := make([]trace.RecordSource, shards)
	for i := range srcs {
		lo, hi := len(recs)*i/shards, len(recs)*(i+1)/shards
		srcs[i] = trace.NewSliceSource(trace.Header{}, false, recs[lo:hi], 0)
	}
	return runShards(ctx, srcs, opts, requested)
}

// ShardNote is the line printed above the report of a run on more than
// one shard: it says what such a run equals.
func ShardNote(shards int) string {
	return fmt.Sprintf("sharded (%d shards): equals a serial run with a cache flush at each shard boundary", shards)
}

// checkMultiShard validates the sharding constraints and resolves the
// default shard count, returning the requested (pre-clamp) count. A
// Translate is refused at any shard count: every shard would call it from
// its own goroutine, and pagemap.Mapper.Translate writes an unsynchronized
// page map on first touch.
func checkMultiShard(opts *MultiOptions, shards *int) (int, error) {
	if opts.Translate != nil {
		return 0, fmt.Errorf("dinero: MultiSimSharded: physical indexing is not shardable (shards would share one page map); run it serially")
	}
	if !opts.Sampling.Exact() {
		return 0, fmt.Errorf("dinero: MultiSimSharded: sampling is not shardable (interval state spans the whole stream)")
	}
	if *shards < 1 {
		*shards = runtime.GOMAXPROCS(0)
	}
	return *shards, nil
}

// runShards is the one shard runner: every source feeds its own cold
// MultiSim on its own goroutine, then the shards merge left to right,
// recording the record-index boundaries a serial reference run must
// Flush at. A shard merged away is released: MergeFrom copied what it
// held. No sources (an empty trace) yields one cold, zero-fed simulator
// and Shards == 0.
func runShards(ctx context.Context, srcs []trace.RecordSource, opts MultiOptions, requested int) (*MultiShardedResult, error) {
	sims := make([]*MultiSim, 0, max(len(srcs), 1))
	releaseAll := func() {
		for _, ms := range sims {
			ms.Release()
		}
	}
	for range cap(sims) {
		ms, err := NewMulti(opts)
		if err != nil {
			releaseAll()
			return nil, err
		}
		sims = append(sims, ms)
	}
	errs := make([]error, len(srcs))
	var wg sync.WaitGroup
	for i, src := range srcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = sims[i].ProcessSource(&ctxSource{ctx: ctx, src: src})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			releaseAll()
			if cerr := context.Cause(ctx); cerr != nil {
				return nil, cerr
			}
			return nil, fmt.Errorf("dinero: shard %d: %w", i, err)
		}
	}

	res := &MultiShardedResult{Sim: sims[0], Requested: requested, Shards: len(srcs)}
	cum := sims[0].Records()
	for i := 1; i < len(sims); i++ {
		res.Boundaries = append(res.Boundaries, cum)
		cum += sims[i].Records()
		if err := res.Sim.MergeFrom(sims[i]); err != nil {
			releaseAll()
			return nil, err
		}
		sims[i].Release()
	}
	return res, nil
}

// ctxSource threads context cancellation into a RecordSource: NextBatch
// fails with the context's error as soon as it fires, so a shard stops
// within one batch of cancellation.
type ctxSource struct {
	ctx context.Context
	src trace.RecordSource
}

func (s *ctxSource) Header() (trace.Header, error) { return s.src.Header() }
func (s *ctxSource) HasHeader() bool               { return s.src.HasHeader() }
func (s *ctxSource) BadLines() int                 { return s.src.BadLines() }

func (s *ctxSource) NextBatch() ([]trace.Record, error) {
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	return s.src.NextBatch()
}

// PublishShardTelemetry records the sharded run's shape — requested vs
// effective shard count — next to the merged simulator's own counters,
// and logs when oversubscription clamped the request.
func (r *MultiShardedResult) PublishShardTelemetry(reg *telemetry.Registry) {
	reg.Counter("multisim.sharded_runs").Inc()
	reg.Counter("multisim.shards_requested").Add(int64(r.Requested))
	reg.Counter("multisim.shards").Add(int64(r.Shards))
	if r.Shards < r.Requested {
		telemetry.L().Info("sharded multisim clamped", "requested", r.Requested, "effective", r.Shards)
	}
	r.Sim.PublishTelemetry(reg)
}
