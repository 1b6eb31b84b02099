package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tracedst/internal/cache"
	"tracedst/internal/cliutil"
	"tracedst/internal/dinero"
	"tracedst/internal/experiments"
	"tracedst/internal/rules"
	"tracedst/internal/simcache"
	"tracedst/internal/telemetry"
	"tracedst/internal/trace"
	"tracedst/internal/xform"
)

// JobState is one station of the job lifecycle. The machine is
//
//	queued → running → done | failed | canceled
//
// with one extra edge for resilience: a graceful drain moves running
// jobs back to queued (persisted), and a restarted server re-runs them
// from scratch — the pipeline is deterministic, so the re-run's report
// is byte-identical to what the uninterrupted run would have produced.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// terminal reports whether the state is final.
func (st JobState) terminal() bool {
	return st == StateDone || st == StateFailed || st == StateCanceled
}

// Job is the persisted face of one managed trace-analysis run: both the
// API resource (minus Report, which has its own endpoint) and the value
// checkpointed under "job/<id>", so a restarted server reloads exactly
// what the API was reporting.
type Job struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Format is the sniffed container of the upload ("text" or "binary").
	Format string `json:"format"`
	// ConfigSpec is the cache geometry override ("" = server default).
	ConfigSpec string `json:"config,omitempty"`
	// Rule is the optional dsxform rule source applied before simulation.
	Rule string `json:"rule,omitempty"`
	// Bytes is the spooled upload size.
	Bytes int64 `json:"bytes"`
	// TraceHash is the hex SHA-256 of the upload's bytes, computed while
	// spooling; the result cache keys the job by it. Jobs persisted by a
	// server that did not hash uploads have none and run uncached.
	TraceHash string `json:"trace_hash,omitempty"`
	// Records is the number of records simulated (0 until done).
	Records int64 `json:"records"`
	// BadLines counts damaged units skipped during decode.
	BadLines int `json:"bad_lines,omitempty"`
	// Warnings counts validator warnings (e.g. a damaged .glb footer).
	Warnings int `json:"warnings,omitempty"`
	// Attempts is how many times the job ran under the retry policy.
	Attempts int `json:"attempts,omitempty"`
	// Resumed marks a job re-adopted from a previous server process.
	Resumed bool `json:"resumed,omitempty"`
	// Cached marks a job answered from the content-addressed result
	// cache: an identical (trace, config, rule) was already simulated, so
	// the stored report was returned without re-walking the trace.
	Cached bool `json:"cached,omitempty"`
	// Error is the failure/cancel reason for terminal non-done states.
	Error string `json:"error,omitempty"`
	// Report is the rendered simulator report (done jobs only).
	Report string `json:"report,omitempty"`
	// TraceID is the job's distributed-tracing identity: taken from the
	// upload's traceparent/X-Request-ID or freshly assigned, echoed in the
	// X-Trace-ID response header, and stamped on every span the job emits.
	TraceID string `json:"trace_id,omitempty"`
	// ParentSpan is the remote parent span from an incoming traceparent,
	// so the job's spans graft onto the caller's trace.
	ParentSpan string `json:"parent_span,omitempty"`
	// Resources is the job's resource accounting: live (sampled) while
	// running, final once terminal. Cleared on a drain revert.
	Resources *JobResources `json:"resources,omitempty"`

	Submitted time.Time `json:"submitted"`
	Finished  time.Time `json:"finished,omitempty"`
}

// JobResources accounts one job's execution cost. CPU time is the
// process-wide clock delta over the job's run — exact when workers run one
// job at a time, an upper bound under concurrency. Heap numbers come from
// periodic runtime sampling, so the peak is a floor (a spike between
// samples can escape it).
type JobResources struct {
	// WallNS is elapsed wall time (so far, while running).
	WallNS int64 `json:"wall_ns"`
	// CPUNS is the process CPU-time delta (user+system).
	CPUNS int64 `json:"cpu_ns"`
	// BytesIn is the spooled upload size being processed.
	BytesIn int64 `json:"bytes_in"`
	// Records is how many records have been streamed.
	Records int64 `json:"records"`
	// RecordsPerSec is Records over wall time.
	RecordsPerSec float64 `json:"records_per_sec"`
	// HeapStartBytes is HeapAlloc when the job started.
	HeapStartBytes int64 `json:"heap_start_bytes"`
	// HeapPeakBytes is the highest sampled HeapAlloc during the run.
	HeapPeakBytes int64 `json:"heap_peak_bytes"`
	// HeapPeakDelta is HeapPeakBytes - HeapStartBytes (floored at 0).
	HeapPeakDelta int64 `json:"heap_peak_delta_bytes"`
	// GCRuns is how many GC cycles completed during the run.
	GCRuns int64 `json:"gc_runs"`
}

// job is the in-memory runtime around a Job: lock, cancel handle, live
// progress and the completion latch.
type job struct {
	mu sync.Mutex
	// persistMu orders checkpoint writes of this job: the upload handler
	// and the worker both persist it, and without it a snapshot taken
	// before the worker ran could land after the worker's terminal write.
	persistMu sync.Mutex
	Job
	cancel     context.CancelFunc // non-nil while running
	userCancel bool               // DELETE requested; distinguishes cancel from drain
	progress   atomic.Int64       // records streamed so far in the current attempt
	done       chan struct{}      // closed on terminal transition
}

// jobView is what list/detail endpoints and SSE events serialize: the
// persisted Job minus the (possibly large) report, plus live progress.
type jobView struct {
	Job
	Report   string `json:"report,omitempty"` // shadowed: never inline
	Progress int64  `json:"progress"`
}

// view snapshots the job for serialization.
func (j *job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{Job: j.Job, Progress: j.progress.Load()}
	v.Report = ""
	if j.State == StateDone {
		v.Progress = j.Records
	}
	return v
}

// runJob executes one queued job under the server's RunPolicy and drives
// its state machine to a terminal state — or back to queued when the
// server is draining, so the next process can adopt it.
func (s *Server) runJob(j *job) {
	j.mu.Lock()
	if j.State != StateQueued {
		j.mu.Unlock()
		return
	}
	if s.baseCtx.Err() != nil {
		// Draining before the job ever started: leave it queued for the
		// next process (it is already persisted as queued).
		j.mu.Unlock()
		return
	}
	jctx, cancel := context.WithCancel(s.baseCtx)
	j.State = StateRunning
	j.cancel = cancel
	traceID, parentSpan := j.TraceID, j.ParentSpan
	format, bytes := j.Format, j.Bytes
	j.mu.Unlock()
	s.persist(j)
	s.gauges()

	// Root the job's span tree: every stage span started from runCtx
	// inherits the job's trace ID, the "job" attr, and server.job as its
	// ancestor. Without an exporter the context stays untraced and the
	// stages pay nothing extra.
	runCtx := jctx
	var root *telemetry.Span
	if s.cfg.Exporter != nil && traceID != "" {
		if tid, err := telemetry.ParseTraceID(traceID); err == nil {
			parent := telemetry.SpanID{}
			if parentSpan != "" {
				parent, _ = telemetry.ParseSpanID(parentSpan)
			}
			tctx := telemetry.ContextWithRemoteParent(jctx, s.cfg.Exporter, tid, parent)
			tctx = telemetry.ContextWithAttrs(tctx, "job", j.ID)
			root, runCtx = s.reg.StartSpanCtx(tctx, "server.job")
			root.SetAttr("format", format)
			root.SetAttr("bytes", strconv.FormatInt(bytes, 10))
		}
	}
	acct := startJobAccounting(j)

	attempts, err := experiments.RunOne(runCtx, s.cfg.Policy, func(ctx context.Context) error {
		return s.execute(ctx, j)
	})
	cancel()
	acct.stop()

	j.mu.Lock()
	j.Attempts = attempts
	j.cancel = nil
	switch {
	case err == nil:
		j.State = StateDone
		j.Finished = s.cfg.now()
		if j.Resources != nil {
			s.reg.Histogram("server.job_wall_ns").Observe(j.Resources.WallNS)
			s.reg.Counter("server.job_cpu_ns").Add(j.Resources.CPUNS)
		}
	case errors.Is(err, context.Canceled) && !j.userCancel && s.baseCtx.Err() != nil:
		// Graceful drain: revert to queued so the restarted server
		// re-runs the job; determinism makes the re-run byte-identical.
		j.State = StateQueued
		j.Error = ""
		j.Report = ""
		j.Records = 0
		j.Cached = false
		j.Resources = nil
	case errors.Is(err, context.Canceled):
		j.State = StateCanceled
		j.Error = "canceled"
		j.Finished = s.cfg.now()
	default:
		j.State = StateFailed
		j.Error = err.Error()
		j.Finished = s.cfg.now()
	}
	terminal := j.State.terminal()
	state := j.State
	if terminal {
		// Count before the state becomes observable, so a client that
		// polls the job to completion already sees the counter bumped.
		s.reg.Counter("server.jobs_" + string(j.State)).Inc()
	}
	j.mu.Unlock()
	if root != nil {
		root.SetAttr("state", string(state))
		root.SetAttr("attempts", strconv.Itoa(attempts))
		root.End()
	}
	s.persist(j)
	if terminal {
		s.removeSpool(j.ID)
		close(j.done)
		if s.cfg.Exporter != nil {
			if ferr := s.cfg.Exporter.Flush(); ferr != nil {
				s.log.Error("span export flush failed", "job", j.ID, "err", ferr)
			}
		}
	}
	s.gauges()
}

// jobAccountingInterval is the resource-sampling cadence while a job
// runs: frequent enough that SSE watchers see live numbers, cheap enough
// (one ReadMemStats per tick) to vanish against simulation cost.
const jobAccountingInterval = 250 * time.Millisecond

// jobAccountant samples one running job's resource usage into
// j.Resources until stopped.
type jobAccountant struct {
	j     *job
	start time.Time
	cpu0  time.Duration
	heap0 int64
	gc0   int64
	peak  int64
	done  chan struct{}
	wg    sync.WaitGroup
}

// startJobAccounting baselines the process and begins sampling. Call
// stop exactly once when the attempt finishes; j.Resources then holds
// the final accounting.
func startJobAccounting(j *job) *jobAccountant {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a := &jobAccountant{
		j:     j,
		start: time.Now(),
		cpu0:  telemetry.ProcessCPU(),
		heap0: int64(ms.HeapAlloc),
		gc0:   int64(ms.NumGC),
		peak:  int64(ms.HeapAlloc),
		done:  make(chan struct{}),
	}
	a.publish(&ms)
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		t := time.NewTicker(jobAccountingInterval)
		defer t.Stop()
		for {
			select {
			case <-a.done:
				return
			case <-t.C:
				a.publish(nil)
			}
		}
	}()
	return a
}

// publish takes one sample and swaps a fresh JobResources onto the job —
// fresh, not mutated in place, so a concurrent serializer holding the
// previous pointer never sees it change underneath.
func (a *jobAccountant) publish(ms *runtime.MemStats) {
	if ms == nil {
		ms = new(runtime.MemStats)
		runtime.ReadMemStats(ms)
	}
	if h := int64(ms.HeapAlloc); h > a.peak {
		a.peak = h
	}
	wall := time.Since(a.start)
	res := &JobResources{
		WallNS:         wall.Nanoseconds(),
		CPUNS:          max64(int64(telemetry.ProcessCPU()-a.cpu0), 0),
		Records:        a.j.progress.Load(),
		HeapStartBytes: a.heap0,
		HeapPeakBytes:  a.peak,
		GCRuns:         max64(int64(ms.NumGC)-a.gc0, 0),
	}
	if d := res.HeapPeakBytes - res.HeapStartBytes; d > 0 {
		res.HeapPeakDelta = d
	}
	if sec := wall.Seconds(); sec > 0 {
		res.RecordsPerSec = float64(res.Records) / sec
	}
	a.j.mu.Lock()
	res.BytesIn = a.j.Bytes
	a.j.Resources = res
	a.j.mu.Unlock()
}

// stop ends the sampler and takes the final sample.
func (a *jobAccountant) stop() {
	close(a.done)
	a.wg.Wait()
	a.publish(nil)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// execute is one attempt of the job's pipeline, streaming the spooled
// upload in constant memory. It runs under the job context: client
// cancellation, drain and the per-job timeout all surface here between
// record batches. An upload whose (trace, config, rule) is already in the
// result cache skips the pipeline entirely and finishes with the stored
// report and cached:true.
func (s *Server) execute(ctx context.Context, j *job) error {
	j.progress.Store(0)
	path := s.spoolPath(j.ID)

	// Resolve the config up front: it is part of the result-cache key.
	cfg := s.cfg.BaseConfig
	var err error
	if j.ConfigSpec != "" {
		cfg, err = cliutil.ParseConfigSpec(s.cfg.BaseConfig, j.ConfigSpec)
		if err != nil {
			return err
		}
	}
	shards := s.jobShards(j)
	ckey, haveKey := s.cacheKey(j, cfg, shards)
	if haveKey {
		if e, ok, gerr := s.simc.Get(ckey); gerr == nil && ok {
			j.progress.Store(e.Records)
			j.mu.Lock()
			j.Records = e.Records
			j.BadLines = e.BadLines
			j.Warnings = e.Warnings
			j.Report = e.Report
			j.Cached = true
			j.mu.Unlock()
			s.reg.Counter("server.jobs_cached").Inc()
			return nil
		}
	}
	// Region checks are skipped — uploads come from arbitrary tracers
	// whose address spaces the server's memory model knows nothing about.
	vopts := trace.ValidateOptions{SkipRegionChecks: true}

	if shards > 1 {
		// The shards decode block ranges in parallel, but the checks
		// follow thread order and per-symbol state through the whole
		// trace, so validation is a pass of its own here.
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		rep, verr := trace.ValidateCtx(ctx, f, vopts)
		f.Close()
		if err := settleValidation(j, rep, verr); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		// An indexed binary upload with no rule splits over JobShards
		// cold simulators and merges — one big job uses all cores. The
		// report equals a serial run with a cache Flush at every shard
		// boundary.
		tr, err := trace.OpenIndexed(path)
		if err != nil {
			return err
		}
		res, rerr := dinero.SimulateShardedContext(ctx, tr, dinero.Options{L1: cfg}, shards, trace.DecodeOptions{})
		tr.Close()
		if rerr != nil {
			return rerr
		}
		sim := res.Sim
		j.progress.Store(sim.Records())
		j.mu.Lock()
		j.Records = sim.Records()
		j.Report = sim.Report()
		j.mu.Unlock()
		s.reg.Counter("server.records_simulated").Add(sim.Records())
		res.PublishShardTelemetry(s.reg)
		s.cachePut(j, ckey, haveKey)
		return nil
	}

	// One pass: the validating decode of the spool file feeds the
	// optional transformation and the simulator batch by batch. Every
	// stage is built before the file is opened, so once it is, the pass
	// runs to its end.
	sim, err := dinero.New(dinero.Options{L1: cfg})
	if err != nil {
		return err
	}
	var eng *xform.Engine
	if j.Rule != "" {
		rule, err := rules.Parse(j.Rule)
		if err != nil {
			return err
		}
		if eng, err = xform.New(xform.Options{}, rule); err != nil {
			return err
		}
	}
	ts, v, err := cliutil.OpenValidatingSourceCtx(ctx, path, vopts)
	if err != nil {
		return err
	}
	defer ts.Close()
	var src trace.RecordSource = &jobSource{ctx: ctx, src: ts, progress: &j.progress, delay: s.cfg.Throttle}
	simCtx := ctx
	var xsp *telemetry.Span
	if eng != nil {
		src = eng.Source(src)
		// The xform span covers the simulation drive: the engine runs
		// lazily inside each NextBatch the simulator pulls.
		xsp, simCtx = telemetry.Default().StartSpanCtx(ctx, "xform.stream")
	}
	serr := sim.ProcessSourceCtx(simCtx, src)
	if xsp != nil {
		xsp.SetAttr("records_out", strconv.FormatInt(sim.Records(), 10))
		xsp.End()
	}
	// Validation outranks the pipeline's outcome: after a pipeline error
	// Finish still checks the rest of the upload, and a trace that fails
	// validation fails the job for that reason, whatever stopped the
	// pipeline.
	rep, verr := v.Finish()
	if err := settleValidation(j, rep, verr); err != nil {
		return err
	}
	if serr != nil {
		return serr
	}

	j.mu.Lock()
	j.Records = sim.Records()
	j.BadLines = ts.BadLines()
	j.Report = sim.Report()
	j.mu.Unlock()
	s.reg.Counter("server.records_simulated").Add(sim.Records())
	sim.PublishTelemetry(s.reg)
	s.cachePut(j, ckey, haveKey)
	return nil
}

// settleValidation turns a finished validation pass into the job's
// outcome: its error, a failure naming the first error-severity finding,
// or — for a trace that passed — the warning count on the job.
func settleValidation(j *job, rep *trace.Report, verr error) error {
	if verr != nil {
		return verr
	}
	if !rep.OK() {
		first := ""
		for _, d := range rep.Diags {
			if d.Sev == trace.SevError {
				first = d.String()
				break
			}
		}
		return fmt.Errorf("trace failed validation: %d errors; first: %s", rep.Errors(), first)
	}
	j.mu.Lock()
	j.Warnings = rep.Warnings()
	j.mu.Unlock()
	return nil
}

// jobShards resolves the effective shard count for one job. The sharded
// engine applies to indexed binary uploads simulated plainly: text
// uploads have no block index, rules stream record-by-record, and a
// throttled server wants jobs held in flight, not finished faster.
func (s *Server) jobShards(j *job) int {
	if s.cfg.JobShards > 1 && j.Format == "binary" && j.Rule == "" && s.cfg.Throttle == 0 {
		return s.cfg.JobShards
	}
	return 1
}

// cacheKey derives the job's result-cache key: the SHA-256 of the
// upload's bytes (taken while spooling) × config × rule hash × shard tier
// × engine version. It reports false — no lookup, no store — when the
// cache is off, the server is throttled (Throttle holds jobs in flight; a
// hit would defeat it), or the job predates upload hashing.
func (s *Server) cacheKey(j *job, cfg cache.Config, shards int) (simcache.Key, bool) {
	if s.simc == nil || s.cfg.Throttle != 0 || j.TraceHash == "" {
		return simcache.Key{}, false
	}
	k := simcache.Key{
		Trace:  "raw:" + j.TraceHash,
		Config: simcache.ConfigSig(cfg),
		Rule:   simcache.HashText(j.Rule),
		Engine: simcache.EngineVersion,
	}
	if shards > 1 {
		// Sharded reports are the flush-at-boundary reference — a
		// distinct tier that must not answer (or be answered by) serial
		// runs.
		k.Sampling = fmt.Sprintf("@jobshards%d", shards)
	}
	return k, true
}

// cachePut stores a finished job's outcome under its key; failures are
// logged, not fatal — the job already has its report.
func (s *Server) cachePut(j *job, k simcache.Key, haveKey bool) {
	if !haveKey {
		return
	}
	j.mu.Lock()
	e := simcache.Entry{
		Records:  j.Records,
		BadLines: j.BadLines,
		Warnings: j.Warnings,
		Report:   j.Report,
	}
	j.mu.Unlock()
	if err := s.simc.Put(k, e); err != nil {
		s.log.Error("result cache store failed", "job", j.ID, "err", err.Error())
	}
}

// jobSource threads the job context and live progress into a
// RecordSource; the optional delay throttles batches (test hook for
// exercising drain and cancellation mid-job).
type jobSource struct {
	ctx      context.Context
	src      trace.RecordSource
	progress *atomic.Int64
	delay    time.Duration
}

func (s *jobSource) Header() (trace.Header, error) { return s.src.Header() }
func (s *jobSource) HasHeader() bool               { return s.src.HasHeader() }
func (s *jobSource) BadLines() int                 { return s.src.BadLines() }

func (s *jobSource) NextBatch() ([]trace.Record, error) {
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	if s.delay > 0 {
		t := time.NewTimer(s.delay)
		select {
		case <-s.ctx.Done():
			t.Stop()
			return nil, s.ctx.Err()
		case <-t.C:
		}
	}
	recs, err := s.src.NextBatch()
	s.progress.Add(int64(len(recs)))
	return recs, err
}
