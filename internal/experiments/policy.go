package experiments

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// RunPolicy shapes how the worker pool treats individual tasks. The zero
// value reproduces the historical behaviour — no deadline, no retries,
// first error cancels the run — except that worker panics are always
// converted to errors instead of crashing the process.
type RunPolicy struct {
	// TaskTimeout, when positive, bounds each task with its own deadline:
	// the task's context is cancelled once the budget elapses. Enforcement
	// is cooperative — tasks observe it at their periodic context checks
	// (the simulator between record batches, the interpreter between
	// statements), so a timed-out task returns within one check interval
	// of the deadline.
	TaskTimeout time.Duration
	// Retries is how many times a task that failed with a *transient*
	// error (see Transient) is re-run before the failure counts. Zero
	// disables retrying.
	Retries int
	// RetryBackoff is the sleep before the first retry, doubled on each
	// further attempt. Zero means retry immediately.
	RetryBackoff time.Duration
	// Transient classifies errors worth retrying. Nil means
	// DefaultTransient, which recognises the retryable I/O errno family
	// (EINTR, EAGAIN, EBUSY, ETIMEDOUT). Context cancellation and budget
	// errors are never retried regardless of this hook.
	Transient func(error) bool
	// KeepGoing switches the pool from errgroup semantics (first error
	// cancels everything) to collection semantics: every task runs, and
	// all failures come back together as a TaskErrors list alongside the
	// successful tasks' results.
	KeepGoing bool

	// afterTask, when non-nil, observes each task index that finished
	// successfully. Test hook: checkpoint tests use it to cancel a run
	// after a known amount of progress.
	afterTask func(i int)
}

// transient reports whether err is worth retrying under the policy.
func (p *RunPolicy) transient(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if p.Transient != nil {
		return p.Transient(err)
	}
	return DefaultTransient(err)
}

// DefaultTransient recognises the errno family that a retry can plausibly
// cure: interrupted or temporarily failing I/O. Permission errors, missing
// files, parse errors and semantic failures are permanent.
func DefaultTransient(err error) bool {
	for _, errno := range []syscall.Errno{syscall.EINTR, syscall.EAGAIN, syscall.EBUSY, syscall.ETIMEDOUT} {
		if errors.Is(err, errno) {
			return true
		}
	}
	// fs.ErrClosed shows up when a descriptor is torn down under a
	// concurrent writer; a fresh attempt reopens it.
	return errors.Is(err, fs.ErrClosed) || errors.Is(err, os.ErrDeadlineExceeded)
}

// PanicError is a worker panic caught by the pool: the recovered value plus
// the goroutine stack at the point of the panic. One crashing experiment
// becomes one failed task instead of a dead process.
type PanicError struct {
	// Value is the value passed to panic().
	Value any
	// Stack is the formatted goroutine stack captured at recovery.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("task panicked: %v\n%s", e.Value, e.Stack)
}

// TaskError is one task's failure inside a pooled run.
type TaskError struct {
	// Index is the task's position in the run's task list.
	Index int
	// Name describes the task when the runner knows one ("" otherwise).
	Name string
	// Attempts is how many times the task ran (1 = no retries).
	Attempts int
	// Err is the task's final error.
	Err error
}

// Error implements error.
func (e *TaskError) Error() string {
	label := e.Name
	if label == "" {
		label = fmt.Sprintf("task %d", e.Index)
	}
	if e.Attempts > 1 {
		return fmt.Sprintf("%s (after %d attempts): %v", label, e.Attempts, e.Err)
	}
	return fmt.Sprintf("%s: %v", label, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *TaskError) Unwrap() error { return e.Err }

// TaskErrors is every failure of a KeepGoing run, ordered by task index.
type TaskErrors []*TaskError

// Error implements error.
func (es TaskErrors) Error() string {
	if len(es) == 1 {
		return es[0].Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d tasks failed:", len(es))
	for _, e := range es {
		b.WriteString("\n  ")
		b.WriteString(e.Error())
	}
	return b.String()
}

// Unwrap exposes the individual failures to errors.Is/As.
func (es TaskErrors) Unwrap() []error {
	out := make([]error, len(es))
	for i, e := range es {
		out[i] = e
	}
	return out
}

// sortByIndex orders the collected failures deterministically however the
// workers interleaved.
func (es TaskErrors) sortByIndex() {
	sort.Slice(es, func(i, j int) bool { return es[i].Index < es[j].Index })
}

// safeCall runs f(ctx, i), converting a panic into a *PanicError so the
// worker goroutine (and the process) survives.
func safeCall(ctx context.Context, i int, f func(context.Context, int) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return f(ctx, i)
}

// RunOne applies the policy to a single task outside a pooled run:
// per-task deadline, panic isolation, and bounded retry with exponential
// backoff for transient errors — the same treatment runTask gives each
// pooled task. The returned attempts count is how many times f ran.
// Long-lived callers (the tracedstd job runner) use it to give every job
// the pool's resilience without a pool.
func RunOne(ctx context.Context, pol RunPolicy, f func(context.Context) error) (attempts int, err error) {
	return runTask(ctx, &pol, 0, func(ctx context.Context, _ int) error { return f(ctx) })
}

// runTask applies the policy to one task: per-task deadline, panic
// isolation, and bounded retry with exponential backoff for transient
// errors. The returned attempts count is how many times f ran.
func runTask(ctx context.Context, pol *RunPolicy, i int, f func(context.Context, int) error) (attempts int, err error) {
	backoff := pol.RetryBackoff
	for {
		attempts++
		tctx, cancel := ctx, context.CancelFunc(func() {})
		if pol.TaskTimeout > 0 {
			tctx, cancel = context.WithTimeout(ctx, pol.TaskTimeout)
		}
		err = safeCall(tctx, i, f)
		cancel()
		if err == nil || attempts > pol.Retries || !pol.transient(err) {
			return attempts, err
		}
		// Transient failure with retry budget left: back off, honouring
		// cancellation of the run.
		if backoff > 0 {
			t := time.NewTimer(backoff)
			select {
			case <-ctx.Done():
				t.Stop()
				return attempts, err
			case <-t.C:
			}
			backoff *= 2
		} else if ctx.Err() != nil {
			return attempts, err
		}
	}
}
