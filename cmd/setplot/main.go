// Command setplot renders per-cache-set hit/miss histograms for a trace —
// the plotting step of the paper's figures. It streams the trace through
// a simulator of the requested geometry in constant memory and emits CSV,
// gnuplot data or an ASCII chart.
//
// Usage:
//
//	setplot -l1-assoc 64 -l1-repl rr -format ascii trace.out
//	setplot -format csv trace.out > fig.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"tracedst/internal/analysis"
	"tracedst/internal/cliutil"
	"tracedst/internal/dinero"
)

func main() {
	fs := flag.NewFlagSet("setplot", flag.ExitOnError)
	l1 := cliutil.NewCacheFlags(fs, "l1", "32k", 32, 1)
	format := fs.String("format", "ascii", "output format: ascii|csv|gnuplot|summary")
	title := fs.String("title", "per-set cache behaviour", "plot title")
	width := fs.Int("width", 40, "ASCII bar width")
	noSym := fs.Bool("nosym", false, "include unannotated records as a (nosym) series")
	tf := cliutil.NewTraceFlags(fs, "setplot")
	of := cliutil.NewObsFlags(fs, "setplot")
	of.AddProfileFlags(fs)
	_ = fs.Parse(os.Args[1:])

	obs, err := of.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "setplot:", err)
		os.Exit(2)
	}
	if fs.NArg() != 1 {
		obs.Log.Error("need exactly one trace file argument (- for stdin)")
		obs.Exit(2)
	}
	cfg, err := l1.Build()
	if err != nil {
		obs.Fatal(err)
	}
	sim, err := dinero.New(dinero.Options{L1: cfg})
	if err != nil {
		obs.Fatal(err)
	}
	sp, sctx := obs.Reg.StartSpanCtx(obs.Ctx, "setplot/simulate")
	ts, err := cliutil.OpenTraceSourceCtx(sctx, fs.Arg(0), tf.Options())
	if err != nil {
		obs.Fatal(err)
	}
	serr := sim.ProcessSourceCtx(sctx, ts)
	cerr := ts.Close()
	sp.End()
	if serr != nil {
		obs.Fatal(serr)
	}
	if cerr != nil {
		obs.Fatal(cerr)
	}
	sim.PublishTelemetry(obs.Reg)
	p := analysis.FromSimulator(*title, sim, *noSym)
	switch *format {
	case "ascii":
		fmt.Print(p.ASCII(*width))
	case "csv":
		fmt.Print(p.CSV())
	case "gnuplot":
		fmt.Print(p.GnuplotData())
	case "summary":
		fmt.Print(p.Summary())
	default:
		obs.Fatal(fmt.Errorf("unknown format %q", *format))
	}
	obs.Close()
}
