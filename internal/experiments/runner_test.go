package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestForEachRunsAll(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		var done [50]int32
		err := forEachPolicy(context.Background(), RunPolicy{}, workers, len(done), nil, func(_ context.Context, i int) error {
			atomic.AddInt32(&done[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range done {
			if done[i] != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, done[i])
			}
		}
	}
}

func TestForEachFirstErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var ran int32
		err := forEachPolicy(context.Background(), RunPolicy{}, workers, 1000, nil, func(_ context.Context, i int) error {
			atomic.AddInt32(&ran, 1)
			if i == 3 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if n := atomic.LoadInt32(&ran); int(n) == 1000 {
			t.Errorf("workers=%d: cancellation did not skip queued tasks", workers)
		}
	}
}

func TestForEachParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran int32
		err := forEachPolicy(ctx, RunPolicy{}, workers, 10, nil, func(context.Context, int) error {
			atomic.AddInt32(&ran, 1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ran != 0 {
			t.Errorf("workers=%d: %d tasks ran under a cancelled parent", workers, ran)
		}
	}
}

// fingerprintResults renders every observable part of a figure run so the
// serial and parallel paths can be compared byte-for-byte.
func fingerprintResults(rs []*Result) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "== %s | %s | %s | records=%d\n", r.ID, r.Title, r.Cache, r.Records)
		for _, n := range r.Notes {
			fmt.Fprintf(&b, "note: %s\n", n)
		}
		if r.Plot != nil {
			b.WriteString(r.Plot.CSV())
		}
		if r.Diff != nil {
			fmt.Fprintf(&b, "diff: %+v\n", r.Diff.Stats())
		}
		b.WriteString(r.SimReport)
	}
	return b.String()
}

func fingerprintSweeps(ss []*SweepResult) string {
	var b strings.Builder
	for _, s := range ss {
		b.WriteString(s.Table())
	}
	return b.String()
}

// TestParallelDeterminism is the acceptance gate for the concurrent runner:
// one-worker and many-worker runs of Sweeps and Figures must produce
// byte-identical output. Run under -race this also exercises
// the shared-trace/shared-symtab paths for data races.
func TestParallelDeterminism(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 4
	}

	ctx := context.Background()
	serial, parallel := RunOptions{Workers: 1}, RunOptions{Workers: workers}
	serialSweeps, err := Sweeps(ctx, serial)
	if err != nil {
		t.Fatal(err)
	}
	parallelSweeps, err := Sweeps(ctx, parallel)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprintSweeps(parallelSweeps), fingerprintSweeps(serialSweeps); got != want {
		t.Errorf("parallel sweeps differ from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}

	serialFigs, err := Figures(ctx, serial)
	if err != nil {
		t.Fatal(err)
	}
	parallelFigs, err := Figures(ctx, parallel)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprintResults(parallelFigs), fingerprintResults(serialFigs); got != want {
		t.Errorf("parallel figures differ from serial (lengths %d vs %d)", len(got), len(want))
	}
}
