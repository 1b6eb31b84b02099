// Command glprof runs the trace-level memory analyses that complement
// cache simulation: per-function/per-variable profiles, reuse-distance
// histograms with miss-ratio curves, and windowed miss-rate timelines.
//
// Usage:
//
//	glprof trace.out
//	glprof -reuse -timeline -window 512 trace.out
//	gltrace -w matmul | glprof -reuse -
package main

import (
	"flag"
	"fmt"
	"os"

	"tracedst/internal/analysis"
	"tracedst/internal/cliutil"
	"tracedst/internal/profile"
	"tracedst/internal/trace"
)

func main() {
	fs := flag.NewFlagSet("glprof", flag.ExitOnError)
	l1 := cliutil.NewCacheFlags(fs, "l1", "32k", 32, 1)
	reuse := fs.Bool("reuse", false, "print the reuse-distance histogram and miss-ratio curve")
	timeline := fs.Bool("timeline", false, "print the windowed miss-rate timeline")
	window := fs.Int("window", 256, "timeline window size in records")
	block := fs.Int64("bsize", 32, "block size for reuse-distance profiling")
	tf := cliutil.NewTraceFlags(fs, "glprof")
	of := cliutil.NewObsFlags(fs, "glprof")
	of.AddProfileFlags(fs)
	_ = fs.Parse(os.Args[1:])

	var err error
	obs, err = of.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "glprof:", err)
		os.Exit(2)
	}
	if fs.NArg() != 1 {
		obs.Log.Error("need exactly one trace file argument (- for stdin)")
		obs.Exit(2)
	}
	// The base profile folds record-by-record, so without -reuse/-timeline
	// (which genuinely need the whole trace for distance/window analysis)
	// the trace streams through in constant memory.
	var recs []trace.Record
	materialize := *reuse || *timeline
	sp := obs.Reg.StartSpan("glprof/profile")
	pr := profile.NewProfiler()
	err = cliutil.StreamTrace(fs.Arg(0), tf.Options(), func(batch []trace.Record) error {
		pr.AddBatch(batch)
		if materialize {
			recs = append(recs, batch...)
		}
		return nil
	})
	if err != nil {
		obs.Fatal(err)
	}
	fmt.Print(pr.Finish().Report())
	sp.End()

	if *reuse {
		r := analysis.ReuseDistances(recs, *block)
		fmt.Println()
		fmt.Print(r.Histogram())
		caps := []int64{8, 16, 32, 64, 128, 256, 512, 1024}
		fmt.Println("miss-ratio curve (fully-associative LRU):")
		for _, c := range caps {
			fmt.Printf("  %6d blocks (%7d B): %6.2f%%\n", c, c**block, 100*r.MissRatio(c))
		}
	}

	if *timeline {
		cfg, err := l1.Build()
		if err != nil {
			obs.Fatal(err)
		}
		tl, err := analysis.MissTimeline(recs, cfg, *window)
		if err != nil {
			obs.Fatal(err)
		}
		fmt.Println()
		fmt.Printf("miss-rate timeline (%d-record windows on %s/%d/%d-way):\n",
			tl.Window, byteSize(cfg.Size), cfg.BlockSize, cfg.Assoc)
		fmt.Printf("  [%s]\n", tl.Sparkline())
		if peak, ok := tl.PeakWindow(); ok {
			fmt.Printf("  peak window: records %d.. with %.1f%% misses\n",
				peak.StartRecord, 100*peak.Ratio())
		}
	}
	obs.Close()
}

func byteSize(n int64) string {
	if n%1024 == 0 {
		return fmt.Sprintf("%dk", n/1024)
	}
	return fmt.Sprint(n)
}

// obs is the tool's observability context, set first thing in main.
var obs *cliutil.Obs
