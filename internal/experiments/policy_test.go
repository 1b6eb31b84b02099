package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// TestForEachPanicIsolation is the regression test for the pool-crash bug:
// a panicking worker used to take down the whole process and leak the
// pool. Now the panic must surface as an error carrying the stack, and —
// in KeepGoing mode — every other task must still run.
func TestForEachPanicIsolation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran int32
		err := forEachPolicy(context.Background(), RunPolicy{KeepGoing: true}, workers, 20, nil,
			func(_ context.Context, i int) error {
				if i == 7 {
					panic("kaboom")
				}
				atomic.AddInt32(&ran, 1)
				return nil
			})
		if err == nil {
			t.Fatalf("workers=%d: panic not reported", workers)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want a *PanicError", workers, err)
		}
		if fmt.Sprint(pe.Value) != "kaboom" {
			t.Errorf("workers=%d: panic value = %v", workers, pe.Value)
		}
		if !strings.Contains(string(pe.Stack), "policy_test.go") {
			t.Errorf("workers=%d: stack does not point at the panic site:\n%s", workers, pe.Stack)
		}
		if n := atomic.LoadInt32(&ran); n != 19 {
			t.Errorf("workers=%d: %d tasks ran, want 19 (panic must not sink siblings)", workers, n)
		}
	}
}

// TestForEachPanicFirstErrorMode: without KeepGoing a panic behaves like
// any first error — reported, cancels the rest, process alive.
func TestForEachPanicFirstErrorMode(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran int32
		err := forEachPolicy(context.Background(), RunPolicy{}, workers, 100, nil, func(_ context.Context, i int) error {
			atomic.AddInt32(&ran, 1)
			if i == 0 {
				panic(errors.New("early crash"))
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want a *PanicError", workers, err)
		}
		var te *TaskError
		if !errors.As(err, &te) || te.Index != 0 {
			t.Errorf("workers=%d: err = %v, want wrapped in TaskError{Index: 0}", workers, err)
		}
		if workers == 1 && ran != 1 {
			t.Errorf("workers=1: %d tasks ran, want 1 (the panic cancels the rest)", ran)
		}
	}
}

// TestKeepGoingCollectsAll: every failure is collected, ordered by task
// index, and the successes still happen.
func TestKeepGoingCollectsAll(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 8} {
		var ran int32
		err := forEachPolicy(context.Background(), RunPolicy{KeepGoing: true}, workers, 30,
			func(i int) string { return fmt.Sprintf("job-%d", i) },
			func(_ context.Context, i int) error {
				atomic.AddInt32(&ran, 1)
				if i%10 == 3 {
					return fmt.Errorf("task %d: %w", i, boom)
				}
				return nil
			})
		if n := atomic.LoadInt32(&ran); n != 30 {
			t.Errorf("workers=%d: ran %d tasks, want all 30", workers, n)
		}
		var tes TaskErrors
		if !errors.As(err, &tes) {
			t.Fatalf("workers=%d: err = %T %v, want TaskErrors", workers, err, err)
		}
		if len(tes) != 3 {
			t.Fatalf("workers=%d: %d failures, want 3: %v", workers, len(tes), tes)
		}
		for k, wantIdx := range []int{3, 13, 23} {
			if tes[k].Index != wantIdx {
				t.Errorf("workers=%d: failure %d has index %d, want %d", workers, k, tes[k].Index, wantIdx)
			}
			if tes[k].Name != fmt.Sprintf("job-%d", wantIdx) {
				t.Errorf("workers=%d: failure %d named %q", workers, k, tes[k].Name)
			}
		}
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: errors.Is through TaskErrors broken", workers)
		}
	}
}

// TestRetryTransient: a task failing with a transient errno is retried
// with backoff until it succeeds; attempts are counted.
func TestRetryTransient(t *testing.T) {
	var calls int32
	pol := RunPolicy{Retries: 3, RetryBackoff: time.Millisecond}
	err := forEachPolicy(context.Background(), pol, 1, 1, nil, func(_ context.Context, i int) error {
		if atomic.AddInt32(&calls, 1) < 3 {
			return fmt.Errorf("flaky write: %w", syscall.EAGAIN)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("transient error not cured by retries: %v", err)
	}
	if calls != 3 {
		t.Errorf("task ran %d times, want 3", calls)
	}
}

// TestRetryExhaustion: a persistently transient failure is reported with
// its attempt count once the budget runs out.
func TestRetryExhaustion(t *testing.T) {
	var calls int32
	pol := RunPolicy{Retries: 2}
	err := forEachPolicy(context.Background(), pol, 1, 1, nil, func(_ context.Context, i int) error {
		atomic.AddInt32(&calls, 1)
		return syscall.EAGAIN
	})
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want TaskError", err)
	}
	if te.Attempts != 3 || calls != 3 {
		t.Errorf("attempts = %d, calls = %d, want 3/3", te.Attempts, calls)
	}
	if !errors.Is(err, syscall.EAGAIN) {
		t.Errorf("underlying errno lost: %v", err)
	}
}

// TestNoRetryOnPermanentError: permanent failures are not retried.
func TestNoRetryOnPermanentError(t *testing.T) {
	var calls int32
	pol := RunPolicy{Retries: 5, RetryBackoff: time.Millisecond}
	err := forEachPolicy(context.Background(), pol, 1, 1, nil, func(context.Context, int) error {
		atomic.AddInt32(&calls, 1)
		return errors.New("parse error: this will never work")
	})
	if err == nil {
		t.Fatal("permanent error swallowed")
	}
	if calls != 1 {
		t.Errorf("permanent error retried %d times", calls-1)
	}
}

// TestTaskTimeout: a task that cooperatively watches its context is cut
// off by the per-task deadline and the failure unwraps to
// DeadlineExceeded; sibling tasks with no such hang complete.
func TestTaskTimeout(t *testing.T) {
	pol := RunPolicy{TaskTimeout: 30 * time.Millisecond, KeepGoing: true}
	var completed int32
	start := time.Now()
	err := forEachPolicy(context.Background(), pol, 2, 4, nil, func(ctx context.Context, i int) error {
		if i == 1 {
			<-ctx.Done() // a "hung" task that honours cancellation
			return fmt.Errorf("simulation stalled: %w", ctx.Err())
		}
		atomic.AddInt32(&completed, 1)
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	var tes TaskErrors
	if !errors.As(err, &tes) || len(tes) != 1 || tes[0].Index != 1 {
		t.Errorf("err = %v, want exactly task 1 failed", err)
	}
	if n := atomic.LoadInt32(&completed); n != 3 {
		t.Errorf("%d healthy tasks completed, want 3", n)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("timeout enforcement took %v", elapsed)
	}
}

// TestDefaultTransientClassification pins the default classifier.
func TestDefaultTransientClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{syscall.EINTR, true},
		{syscall.EAGAIN, true},
		{syscall.EBUSY, true},
		{syscall.ETIMEDOUT, true},
		{fmt.Errorf("wrap: %w", syscall.EINTR), true},
		{syscall.ENOENT, false},
		{errors.New("semantic failure"), false},
		{context.Canceled, false},
	}
	for _, c := range cases {
		if got := DefaultTransient(c.err); got != c.want {
			t.Errorf("DefaultTransient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestTaskErrorsRendering: the aggregate error names every failure.
func TestTaskErrorsRendering(t *testing.T) {
	tes := TaskErrors{
		{Index: 2, Name: "fig5", Attempts: 1, Err: errors.New("bad diff")},
		{Index: 7, Attempts: 3, Err: errors.New("io wobble")},
	}
	msg := tes.Error()
	for _, want := range []string{"2 tasks failed", "fig5: bad diff", "task 7 (after 3 attempts): io wobble"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error text %q missing %q", msg, want)
		}
	}
}
