package experiments

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"tracedst/internal/minic"
	"tracedst/internal/trace"
	"tracedst/internal/workloads"
)

// TestSweepCheckpointResume is the crash-recovery acceptance test: cancel
// a sweep run mid-flight, then resume from the store directory with a
// different worker count — the merged results must be byte-identical to an
// uninterrupted run, and the resumed run must reuse the persisted work.
func TestSweepCheckpointResume(t *testing.T) {
	clean, err := Sweeps(context.Background(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprintSweeps(clean)

	dir := t.TempDir()
	store, _ := openStore(t, dir)
	// Interrupt the run after 5 completed tasks — mid-flight by
	// construction (a full run has eight side-level tasks).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done int32
	opts := RunOptions{Workers: 1, Store: store,
		Policy: RunPolicy{afterTask: func(int) {
			if atomic.AddInt32(&done, 1) == 5 {
				cancel()
			}
		}}}
	if _, err := Sweeps(ctx, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}

	// Resume in a fresh store handle, as a restarted process would.
	store2, reg2 := openStore(t, dir)
	resumed, err := Sweeps(context.Background(), RunOptions{Workers: 4, Store: store2})
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprintSweeps(resumed); got != want {
		t.Errorf("resumed results differ from a clean run:\n--- clean ---\n%s\n--- resumed ---\n%s", want, got)
	}
	// The resume reuses the points the finished tasks stored.
	if hits := reg2.Counter("simcache.hits").Value(); hits < 5 {
		t.Fatalf("resume restored only %d points stored before cancellation, want >= 5", hits)
	}
}

// TestFigureCheckpointReplay: figures restored from a store print
// identically to freshly computed ones (Sim aside, which is never
// printed), whether the run named every figure or one.
func TestFigureCheckpointReplay(t *testing.T) {
	for _, ids := range [][]string{nil, {"fig3"}} {
		dir := t.TempDir()
		store, _ := openStore(t, dir)
		first, err := Figures(context.Background(), RunOptions{Workers: 2, Store: store}, ids...)
		if err != nil {
			t.Fatal(err)
		}

		store2, _ := openStore(t, dir)
		replayed, err := Figures(context.Background(), RunOptions{Workers: 2, Store: store2}, ids...)
		if err != nil {
			t.Fatal(err)
		}
		if len(replayed) != len(first) {
			t.Fatalf("ids %v: replay returned %d figures, want %d", ids, len(replayed), len(first))
		}
		for i, r := range replayed {
			if r.SimReport != "" {
				t.Errorf("%s: replayed result has a SimReport — it was recomputed, not restored", r.ID)
			}
			if got, want := fingerprintPrinted(r), fingerprintPrinted(first[i]); got != want {
				t.Errorf("%s: replayed figure prints differently:\n--- fresh ---\n%s\n--- replayed ---\n%s",
					r.ID, want, got)
			}
		}
	}
}

// fingerprintPrinted renders everything cmd/experiments prints or writes
// for a figure (Sim is intentionally absent — it is never output).
func fingerprintPrinted(r *Result) string {
	var b strings.Builder
	b.WriteString(r.ID + "|" + r.Title + "|" + r.Cache + "\n")
	for _, n := range r.Notes {
		b.WriteString("note: " + n + "\n")
	}
	if r.Plot != nil {
		b.WriteString(r.Plot.ASCII(36))
		b.WriteString(r.Plot.Summary())
		b.WriteString(r.Plot.CSV())
		b.WriteString(r.Plot.GnuplotData())
	}
	if r.Diff != nil {
		b.WriteString(r.Diff.SideBySide(52))
	}
	return b.String()
}

// TestSweepKeepGoingWithRunawayWorkload: one spec whose workload blows its
// step budget must fail with ErrBudgetExceeded in the structured error
// list while the healthy specs complete fully.
func TestSweepKeepGoingWithRunawayWorkload(t *testing.T) {
	prevSteps := SetMaxSteps(50_000)
	defer SetMaxSteps(prevSteps)

	runawayTrace := &memoTrace{gen: func() ([]trace.Record, error) {
		return runWorkload(workloads.Runaway, nil)
	}}
	specs := []sweepSpec{
		{
			id: "sweep-bad", title: "runaway workload", geometry: "32-byte blocks, 1-way",
			sizes: []int64{1024, 2048}, config: directMapped,
			orig: runawayTrace, xform: runawayTrace,
		},
		{
			id: "sweep-good", title: "healthy workload", geometry: "32-byte blocks, 1-way",
			sizes: []int64{1024, 2048}, config: directMapped,
			orig: t1Trace, xform: t1Xform,
		},
	}
	out, err := runSweeps(context.Background(), specs,
		RunOptions{Workers: 2, Policy: RunPolicy{KeepGoing: true}})
	if err == nil {
		t.Fatal("runaway spec did not fail")
	}
	var tes TaskErrors
	if !errors.As(err, &tes) {
		t.Fatalf("err = %T %v, want TaskErrors", err, err)
	}
	if len(tes) != 2 { // one task per side, each covering every size
		t.Errorf("%d failures, want 2: %v", len(tes), tes)
	}
	for _, te := range tes {
		if !errors.Is(te, minic.ErrBudgetExceeded) {
			t.Errorf("failure %v does not unwrap to ErrBudgetExceeded", te)
		}
		if !strings.HasPrefix(te.Name, "sweep/sweep-bad/") {
			t.Errorf("failure names %q, want a sweep-bad task", te.Name)
		}
	}
	// The healthy spec's numbers must match a clean solo run.
	solo, serr := runSweeps(context.Background(), specs[1:], RunOptions{Workers: 1})
	if serr != nil {
		t.Fatal(serr)
	}
	if got, want := out[1].Table(), solo[0].Table(); got != want {
		t.Errorf("healthy spec perturbed by sibling failure:\n%s\nvs\n%s", got, want)
	}
}

// TestSweepCancellationReturnsPartialResults: a cancelled run still hands
// back the points it finished, and with a store those points are on disk.
func TestSweepCancellationReturnsPartialResults(t *testing.T) {
	store, reg := openStore(t, t.TempDir())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done int32
	opts := RunOptions{Workers: 1, Store: store,
		Policy: RunPolicy{afterTask: func(int) {
			if atomic.AddInt32(&done, 1) == 3 {
				cancel()
			}
		}}}
	out, err := Sweeps(ctx, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out == nil {
		t.Fatal("cancelled run returned nil results")
	}
	var nonZero int
	for _, s := range out {
		for _, p := range s.Points {
			if p.MissesOrig > 0 || p.MissesXform > 0 {
				nonZero++
			}
		}
	}
	if nonZero == 0 {
		t.Error("no partial results survived cancellation")
	}
	// A put is counted once its entry is written.
	if puts := reg.Counter("simcache.puts").Value(); puts < 3 {
		t.Errorf("%d stored points after 3 completed tasks", puts)
	}
}
