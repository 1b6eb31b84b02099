package experiments

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tracedst/internal/dinero"
	"tracedst/internal/simcache"
	"tracedst/internal/telemetry"
)

// RunOptions bundles everything that shapes a resilient batch run: worker
// count, failure policy, and the store (nil = no persistence).
type RunOptions struct {
	// Workers is the pool size; values below 1 mean GOMAXPROCS.
	Workers int
	// Policy is the per-task failure policy.
	Policy RunPolicy
	// Store, when non-nil, holds every finished sweep point as a result —
	// content-addressed by (trace hash, config, result tier, engine
	// version) — and every regenerated figure as a record. Work it
	// already holds is restored instead of recomputed, whether an
	// interrupted run stored it or any earlier run, spec or process did:
	// the resume path of cmd/experiments.
	Store *simcache.Store
	// Sampling selects the sweeps' approximation tier (exact when zero).
	// Sampled results are estimates: they are stored under distinct keys
	// and never mix with exact ones.
	Sampling dinero.Sampling
	// Shards > 1 splits each sweep side's and each histogram figure's
	// record stream into that many contiguous shards, simulated in
	// parallel on cold caches and merged. The result equals a serial run
	// that flushes the cache at every shard boundary, so it is stored
	// under distinct keys and never mixes with unsharded results.
	// Incompatible with non-exact Sampling.
	Shards int
}

// workerCount resolves the effective pool size.
func (o *RunOptions) workerCount() int {
	if o.Workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// runInstruments is the telemetry of one pooled run: per-task counters
// and spans, the task-duration histogram, worker busy time for the
// utilization gauge, and the periodic progress line. Everything it
// touches is atomic or registry-internal, so workers share it freely.
type runInstruments struct {
	reg    *telemetry.Registry
	tasks  *telemetry.Counter
	ok     *telemetry.Counter
	failed *telemetry.Counter
	retry  *telemetry.Counter
	panics *telemetry.Counter
	taskNS *telemetry.Histogram
	prog   *telemetry.Progress
	busyNS atomic.Int64
	start  time.Time
}

func newRunInstruments(n int) *runInstruments {
	reg := telemetry.Default()
	return &runInstruments{
		reg:    reg,
		tasks:  reg.Counter("experiments.tasks"),
		ok:     reg.Counter("experiments.tasks_ok"),
		failed: reg.Counter("experiments.tasks_failed"),
		retry:  reg.Counter("experiments.retries"),
		panics: reg.Counter("experiments.panics"),
		taskNS: reg.Histogram("experiments.task_ns"),
		prog:   telemetry.StartProgress("tasks", n, telemetry.ProgressInterval()),
		start:  time.Now(),
	}
}

// runTask wraps the raw policy runner with a span, the duration
// histogram, progress accounting, and — on failure — one structured
// event per TaskError/PanicError emitted the moment it happens (the
// -keep-going sink: failures surface immediately, not only in the final
// error list).
func (ins *runInstruments) runTask(ctx context.Context, pol *RunPolicy, i int, label string, f func(context.Context, int) error) (int, error) {
	sp := ins.reg.StartSpan("task/" + label)
	attempts, err := runTask(ctx, pol, i, f)
	wall := sp.End()
	ins.busyNS.Add(int64(wall))
	ins.taskNS.Observe(int64(wall))
	ins.tasks.Inc()
	if attempts > 1 {
		ins.retry.Add(int64(attempts - 1))
	}
	ins.prog.Add(1)
	if err == nil {
		ins.ok.Inc()
		return attempts, nil
	}
	ins.failed.Inc()
	attrs := []any{"task", label, "attempts", attempts, "err", err.Error()}
	var pe *PanicError
	if errors.As(err, &pe) {
		ins.panics.Inc()
		attrs = []any{"task", label, "attempts", attempts, "panic", true,
			"err", toString(pe.Value), "stack", string(pe.Stack)}
	}
	telemetry.L().Error("task failed", attrs...)
	return attempts, err
}

// finish closes the progress line and records worker utilization: the
// fraction of worker-seconds actually spent inside tasks.
func (ins *runInstruments) finish(workers int) {
	ins.prog.Stop()
	elapsed := time.Since(ins.start)
	if elapsed <= 0 {
		return
	}
	ins.reg.Gauge("experiments.workers").Set(int64(workers))
	util := 100 * ins.busyNS.Load() / (int64(elapsed) * int64(workers))
	if util > 100 {
		util = 100 // rounding under near-full load
	}
	ins.reg.Gauge("experiments.worker_utilization_pct").Set(util)
}

// toString renders a recovered panic value for a structured event.
func toString(v any) string {
	if s, ok := v.(string); ok {
		return s
	}
	if e, ok := v.(error); ok {
		return e.Error()
	}
	return "panic"
}

// forEachPolicy runs f(ctx, i) for every i in [0, n) on a pool of workers
// under pol. Every invocation is panic-isolated (a panicking task becomes a
// *PanicError, the pool and process survive), deadline-bounded and retried
// per the policy. Without KeepGoing the first failure cancels the run and
// is returned as a *TaskError; with KeepGoing every task runs and all
// failures return together as TaskErrors, ordered by task index. name,
// when non-nil, labels tasks in error reports. With one worker the tasks
// run in index order on the calling goroutine.
func forEachPolicy(ctx context.Context, pol RunPolicy, workers, n int, name func(int) string, f func(context.Context, int) error) error {
	label := func(i int) string {
		if name != nil {
			return name(i)
		}
		return "task"
	}
	workers = max(1, min(workers, n))
	ins := newRunInstruments(n)
	defer ins.finish(workers)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		errMu    sync.Mutex
		firstErr error
		tes      TaskErrors
	)
	fail := func(i, attempts int, err error) {
		te := &TaskError{Index: i, Attempts: attempts, Err: err}
		if name != nil {
			te.Name = name(i)
		}
		errMu.Lock()
		defer errMu.Unlock()
		if pol.KeepGoing {
			tes = append(tes, te)
			return
		}
		if firstErr == nil {
			firstErr = te
		}
		cancel()
	}

	// Workers claim task indexes in order from a shared counter and stop
	// claiming once the run is cancelled; the calling goroutine is one.
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= n || runCtx.Err() != nil {
				return
			}
			attempts, err := ins.runTask(runCtx, &pol, i, label(i), f)
			if err != nil {
				fail(i, attempts, err)
				continue
			}
			if pol.afterTask != nil {
				pol.afterTask(i)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	if pol.KeepGoing {
		return keepGoingResult(tes, ctx.Err())
	}
	if firstErr != nil {
		return firstErr
	}
	return runCtx.Err()
}

// keepGoingResult folds a KeepGoing run's collected failures and the
// run-level context error into one return value: nil when everything
// succeeded, the sorted TaskErrors when only tasks failed, the context
// error when the run was cut short, and both joined when each happened.
func keepGoingResult(tes TaskErrors, ctxErr error) error {
	if len(tes) == 0 {
		if ctxErr != nil {
			return ctxErr
		}
		return nil
	}
	tes.sortByIndex()
	if ctxErr != nil {
		return errors.Join(ctxErr, tes)
	}
	return tes
}
