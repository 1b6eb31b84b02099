// Command experiments regenerates the paper's figures (3-11): it runs the
// relevant workload, applies the transformation rule where the figure calls
// for one, simulates the paper's cache geometry, and prints the per-set
// histogram (or trace diff) together with measured observations.
//
// Usage:
//
//	experiments -all
//	experiments -fig 11
//	experiments -fig 5 -diff          # include the full side-by-side diff
//	experiments -all -outdir results  # also write CSV/gnuplot per figure
//	experiments -all -parallel 1      # force a serial run
//
// Long batches run resiliently: -checkpoint DIR stores every finished
// sweep point and figure atomically in one store (internal/simcache),
// Ctrl-C cancels cleanly (completed work stays on disk), and rerunning
// with the same -checkpoint DIR resumes where an interrupted run stopped
// and reuses any earlier run's results:
//
//	experiments -sweep -all -checkpoint run1   # interrupted by crash/SIGINT
//	experiments -sweep -all -checkpoint run1   # redoes only unfinished work
//	experiments -all -keep-going               # collect failures, don't stop
//	experiments -all -task-timeout 2m -retries 2 -max-steps 500000000
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"tracedst/internal/cliutil"
	"tracedst/internal/dinero"
	"tracedst/internal/experiments"
	"tracedst/internal/simcache"
)

func main() {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	fig := fs.Int("fig", 0, "regenerate one figure (3-11)")
	all := fs.Bool("all", false, "regenerate every figure")
	sweeps := fs.Bool("sweep", false, "run the layout sweeps (orig vs transformed across cache sizes)")
	showDiff := fs.Bool("diff", false, "print full side-by-side diffs for diff figures")
	diffWidth := fs.Int("diff-width", 52, "diff column width")
	outdir := fs.String("outdir", "", "also write per-figure CSV/gnuplot/diff files to this directory")
	par := fs.Int("parallel", runtime.NumCPU(), "worker count for sweeps and figure regeneration (1 = serial)")
	validate := fs.Bool("validate", false, "run every generated trace through the strict validator before use")
	ckptDir := fs.String("checkpoint", "", "store each finished sweep point and figure in this directory, and reuse what it already holds (resumes an interrupted run)")
	keepGoing := fs.Bool("keep-going", false, "run every task even after failures, then report the full failure list")
	taskTimeout := fs.Duration("task-timeout", 0, "per-task deadline (0 = none)")
	retries := fs.Int("retries", 0, "retry a task failing with a transient I/O error this many times")
	retryBackoff := fs.Duration("retry-backoff", 100*time.Millisecond, "sleep before the first retry, doubled each attempt")
	maxSteps := fs.Int64("max-steps", 0, "per-workload interpreter step budget; runaway workloads fail instead of hanging (0 = default limit)")
	sampleInterval := fs.Int("sample-interval", 0, "approximate sweeps: simulate every Kth window of records (0/1 = exact)")
	sampleWindow := fs.Int("sample-window", 0, "records per -sample-interval window (0 = default)")
	shards := fs.Int("shards", 0, "sharded runs: split each sweep side and figure simulation into N cold shards merged with full attribution (equals flush-at-boundary serial run; 0/1 = off)")
	of := cliutil.NewObsFlags(fs, "experiments")
	of.AddProfileFlags(fs)
	_ = fs.Parse(os.Args[1:])

	var err error
	obs, err = of.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}

	experiments.SetValidate(*validate)
	experiments.SetMaxSteps(*maxSteps)

	// SIGINT/SIGTERM cancel the run context: in-flight simulations stop at
	// their next context poll, finished tasks stay stored, and the exit
	// message names the resume command.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := experiments.RunOptions{
		Workers: max(*par, 1), // -parallel 0 or below runs serially
		Policy: experiments.RunPolicy{
			TaskTimeout:  *taskTimeout,
			Retries:      *retries,
			RetryBackoff: *retryBackoff,
			KeepGoing:    *keepGoing,
		},
		Sampling: dinero.Sampling{Interval: *sampleInterval, Window: *sampleWindow},
		Shards:   *shards,
	}
	if !opts.Sampling.Exact() {
		obs.Log.Info("sweeps run sampled: results are scaled estimates",
			"sample_interval", opts.Sampling.Interval, "sample_window", opts.Sampling.WindowLen())
	}
	if opts.Shards > 1 {
		obs.Log.Info("sweeps and figures run sharded: results equal a flush-at-boundary serial run",
			"shards", opts.Shards)
	}
	if *ckptDir != "" {
		store, err := simcache.Open(*ckptDir, obs.Reg)
		if err != nil {
			obs.Fatal(err)
		}
		opts.Store = store
		obs.Log.Info("store enabled", "dir", *ckptDir, "engine", simcache.EngineVersion)
	}

	exit := 0
	if *sweeps {
		sp := obs.Reg.StartSpan("phase/sweeps")
		ss, err := experiments.Sweeps(ctx, opts)
		sp.End()
		if err != nil {
			exit = reportRunError("sweeps", err, *ckptDir)
		}
		if err == nil || isKeepGoing(err) {
			for _, s := range ss {
				fmt.Println(s.Table())
			}
		}
		if exit != 0 {
			obs.Exit(exit)
		}
		if !*all && *fig == 0 {
			obs.Close()
			return
		}
	}
	var ids []string // none: every figure
	switch {
	case *all:
	case *fig != 0:
		ids = []string{fmt.Sprintf("fig%d", *fig)}
	default:
		obs.Log.Error("need -all, -fig N or -sweep")
		obs.Exit(2)
	}
	sp := obs.Reg.StartSpan("phase/figures")
	results, err := experiments.Figures(ctx, opts, ids...)
	sp.End()
	if err != nil {
		exit = reportRunError("figures", err, *ckptDir)
		if !isKeepGoing(err) {
			obs.Exit(exit)
		}
	}
	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			obs.Fatal(err)
		}
	}
	for _, r := range results {
		if r == nil {
			continue // failed under -keep-going; already reported
		}
		fmt.Printf("==== %s — %s ====\n", r.ID, r.Title)
		if r.Cache != "" {
			fmt.Printf("cache: %s\n", r.Cache)
		}
		fmt.Printf("trace records: %d\n", r.Records)
		if r.Plot != nil {
			fmt.Println()
			fmt.Print(r.Plot.ASCII(36))
			fmt.Println()
			fmt.Print(r.Plot.Summary())
		}
		if r.Diff != nil && *showDiff {
			fmt.Println()
			fmt.Print(r.Diff.SideBySide(*diffWidth))
		}
		fmt.Println()
		for _, n := range r.Notes {
			fmt.Printf("  * %s\n", n)
		}
		fmt.Println()
		if *outdir != "" {
			if err := writeArtifacts(*outdir, r, *diffWidth); err != nil {
				obs.Fatal(err)
			}
		}
	}
	obs.Exit(exit)
}

// obs is the tool's observability context; set first thing in main so
// every exit path flushes profiles and the metrics manifest.
var obs *cliutil.Obs

// isKeepGoing reports whether err is (or wraps) the structured failure
// list of a -keep-going run, i.e. the run completed with partial results.
func isKeepGoing(err error) bool {
	var tes experiments.TaskErrors
	return errors.As(err, &tes)
}

// reportRunError explains a failed phase and returns the exit code: the
// run keeps its partial output, and interrupted runs with a store get a
// resume hint.
func reportRunError(phase string, err error, ckptDir string) int {
	obs.Log.Error(phase+" failed", "err", err.Error())
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		if ckptDir != "" {
			obs.Log.Warn("interrupted; finished tasks are stored — rerun with -checkpoint "+ckptDir+" to resume", "resume", ckptDir)
		} else {
			obs.Log.Warn("interrupted; rerun with -checkpoint DIR to make runs resumable")
		}
		return 130
	}
	return 1
}

// writeArtifacts writes a figure's CSV/gnuplot/diff files atomically, so a
// crash mid-run never leaves truncated artifacts behind.
func writeArtifacts(dir string, r *experiments.Result, diffWidth int) error {
	if r.Plot != nil {
		if err := cliutil.WriteFile(filepath.Join(dir, r.ID+".csv"), []byte(r.Plot.CSV())); err != nil {
			return err
		}
		if err := cliutil.WriteFile(filepath.Join(dir, r.ID+".dat"), []byte(r.Plot.GnuplotData())); err != nil {
			return err
		}
		script := r.Plot.GnuplotScript(r.ID + ".dat")
		if err := cliutil.WriteFile(filepath.Join(dir, r.ID+".gp"), []byte(script)); err != nil {
			return err
		}
	}
	if r.Diff != nil {
		if err := cliutil.WriteFile(filepath.Join(dir, r.ID+".diff"), []byte(r.Diff.SideBySide(diffWidth))); err != nil {
			return err
		}
	}
	return nil
}
