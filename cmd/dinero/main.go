// Command dinero is the modified-DineroIV cache simulator: it consumes a
// Gleipnir trace and reports overall, per-function, per-variable and
// per-set statistics, plus the structure-conflict matrix.
//
// Usage:
//
//	dinero -l1-size 32k -l1-bsize 32 -l1-assoc 1 trace.out
//	gltrace -w trans3-cont | dinero -l1-assoc 64 -l1-repl rr -plot -
//
// Every run is one streaming pass of the multi-configuration engine
// (dinero.MultiSim): the trace is decoded batch by batch in constant
// memory, text or .glb alike, and never materialized. A plain run is a
// one-config pass. Multi-configuration mode evaluates several geometries
// in the same pass (decode, translation and symbol resolution are shared)
// and prints a banner line before each config's report; with
// -sample-interval the pass simulates every Kth window of records and
// prints scaled estimates, with no error bound, instead of full reports:
//
//	dinero -config size=8k -config size=16k -config size=32k,assoc=2 trace.out
//	dinero -configs sweep.cfgs -sample-interval 4 trace.out
//
// -shards N splits the pass over a binary .glb (mmap'd; its block-index
// footer, when present, saves a frame scan) into N parallel cold shards
// that merge; reports then equal a serial run with a cache Flush at each
// shard boundary, and a line saying so precedes each report when more
// than one shard ran:
//
//	dinero -shards 4 trace.glb
//	dinero -config size=8k -config size=16k -shards -1 trace.glb
//
// -phys (physical indexing) runs serially only: its page map assigns
// frames in first-touch order and cannot be shared by concurrent shards,
// so -shards refuses it.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"tracedst/internal/analysis"
	"tracedst/internal/cache"
	"tracedst/internal/cliutil"
	"tracedst/internal/dinero"
	"tracedst/internal/pagemap"
	"tracedst/internal/trace"
)

func main() {
	fs := flag.NewFlagSet("dinero", flag.ExitOnError)
	l1 := cliutil.NewCacheFlags(fs, "l1", "32k", 32, 1)
	l2 := cliutil.NewCacheFlags(fs, "l2", "256k", 64, 8)
	withL2 := fs.Bool("with-l2", false, "simulate a second cache level")
	plot := fs.Bool("plot", false, "print the per-set ASCII plot")
	csv := fs.String("csv", "", "write the per-set CSV to this file")
	gnuplot := fs.String("gnuplot", "", "write gnuplot .dat series to this file")
	noSym := fs.Bool("nosym", false, "include unannotated records as a (nosym) series")
	var cfgSpecs cliutil.Repeated
	fs.Var(&cfgSpecs, "config", "extra cache config as key=value overrides of the -l1 flags, e.g. size=8k,assoc=2 (repeatable; enables single-pass multi-config mode)")
	configsFile := fs.String("configs", "", "file with one -config spec per line (# comments, - for stdin)")
	sampleInterval := fs.Int("sample-interval", 0, "approximate: simulate every Kth window of records, scale stats (0/1 = exact)")
	sampleWindow := fs.Int("sample-window", 0, "records per -sample-interval window (0 = default)")
	shards := fs.Int("shards", 0, "sharded simulation over a binary .glb file: N workers simulate disjoint block ranges and merge (0 = off, -1 = one per CPU)")
	phys := fs.String("phys", "off", "physical indexing: off | seq | shuffled (4 KiB pages); serial runs only (-shards refuses it)")
	physSeed := fs.Uint64("phys-seed", 0, "seed for the shuffled frame permutation")
	tf := cliutil.NewTraceFlags(fs, "dinero")
	of := cliutil.NewObsFlags(fs, "dinero")
	of.AddProfileFlags(fs)
	_ = fs.Parse(os.Args[1:])

	var err error
	obs, err = of.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dinero:", err)
		os.Exit(2)
	}
	if fs.NArg() != 1 {
		obs.Log.Error("need exactly one trace file argument (- for stdin)")
		obs.Exit(2)
	}
	cfg1, err := l1.Build()
	if err != nil {
		obs.Fatal(err)
	}
	opts := dinero.MultiOptions{
		Sampling: dinero.Sampling{Interval: *sampleInterval, Window: *sampleWindow},
	}
	switch *phys {
	case "off":
	case "seq":
		opts.Translate = pagemap.New(pagemap.Config{Policy: pagemap.Sequential}).MustTranslate
	case "shuffled":
		opts.Translate = pagemap.New(pagemap.Config{Policy: pagemap.Shuffled, Seed: *physSeed}).MustTranslate
	default:
		obs.Fatal(fmt.Errorf("bad -phys %q (off|seq|shuffled)", *phys))
	}
	if *withL2 {
		cfg2, err := l2.Build()
		if err != nil {
			obs.Fatal(err)
		}
		opts.L2 = &cfg2
	}
	multi := len(cfgSpecs) > 0 || *configsFile != "" || !opts.Sampling.Exact()
	if multi {
		if *shards != 0 && !opts.Sampling.Exact() {
			obs.Fatal(fmt.Errorf("-shards needs exact sampling (interval state spans the whole stream)"))
		}
		if *plot || *csv != "" || *gnuplot != "" {
			obs.Fatal(fmt.Errorf("-plot/-csv/-gnuplot need a single exact config"))
		}
	}
	if opts.Configs, err = configs(cfg1, cfgSpecs, *configsFile); err != nil {
		obs.Fatal(err)
	}
	ms, ran := simulate(fs.Arg(0), opts, *shards, tf)
	// A sharded report says what it equals, before the report itself.
	note := ""
	if ran > 1 {
		note = dinero.ShardNote(ran) + "\n"
	}
	if multi {
		printMultiReports(ms, opts.Sampling, note)
		obs.Close()
		return
	}
	fmt.Print(note + ms.Report(0))

	p := analysis.FromMulti("per-set cache behaviour", ms, 0, *noSym)
	if *plot {
		fmt.Println()
		fmt.Print(p.ASCII(40))
		fmt.Println()
		fmt.Print(p.Summary())
	}
	if *csv != "" {
		if err := cliutil.WriteFile(*csv, []byte(p.CSV())); err != nil {
			obs.Fatal(err)
		}
	}
	if *gnuplot != "" {
		if err := cliutil.WriteFile(*gnuplot, []byte(p.GnuplotData())); err != nil {
			obs.Fatal(err)
		}
	}
	obs.Close()
}

// obs is the tool's observability context; set first thing in main so
// every error path can flush profiles and the metrics manifest.
var obs *cliutil.Obs

// configs lists the geometries of the pass: every -configs file line,
// then every -config spec, each overriding the -l1 flags in base; with
// neither, base alone.
func configs(base cache.Config, specs []string, specFile string) ([]cache.Config, error) {
	cfgs := []cache.Config{}
	if specFile != "" {
		fromFile, err := cliutil.LoadConfigSpecs(specFile, base)
		if err != nil {
			return nil, err
		}
		cfgs = fromFile
	}
	for _, spec := range specs {
		cfg, err := cliutil.ParseConfigSpec(base, spec)
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, cfg)
	}
	if len(cfgs) == 0 {
		cfgs = append(cfgs, base)
	}
	return cfgs, nil
}

// simulate runs the one pass over the trace at path, under the
// dinero/simulate span, and returns the engine with the shard count that
// ran (0 for a serial pass). Serially it streams the trace batch by batch
// in constant memory, whatever its format. With shards != 0 the trace
// must be a binary .glb: workers simulate disjoint block ranges on cold
// engines and merge, so reports equal a serial run with Flush at each
// shard boundary.
func simulate(path string, opts dinero.MultiOptions, shards int, tf *cliutil.TraceFlags) (*dinero.MultiSim, int) {
	if shards == 0 {
		ms, err := dinero.NewMulti(opts)
		if err != nil {
			obs.Fatal(err)
		}
		sp, sctx := obs.Reg.StartSpanCtx(obs.Ctx, "dinero/simulate")
		ts, err := cliutil.OpenTraceSourceCtx(sctx, path, tf.Options())
		if err != nil {
			obs.Fatal(err)
		}
		serr := ms.ProcessSourceCtx(sctx, ts)
		cerr := ts.Close()
		sp.End()
		if serr != nil {
			obs.Fatal(serr)
		}
		if cerr != nil {
			obs.Fatal(cerr)
		}
		ms.PublishTelemetry(obs.Reg)
		return ms, 0
	}
	// SIGINT/SIGTERM cancel the shard context: every worker stops at its
	// next record batch instead of the process dying mid-merge.
	ctx, stop := signal.NotifyContext(obs.Ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	sp, _ := obs.Reg.StartSpanCtx(ctx, "dinero/simulate")
	tr, err := trace.OpenIndexed(path)
	if err != nil {
		obs.Fatal(err)
	}
	res, err := dinero.MultiSimShardedContext(ctx, tr, opts, shards, tf.Options())
	if err != nil {
		tr.Close()
		obs.Fatal(err)
	}
	cliutil.PublishDecode(trace.FormatBinary, tr.Bytes(), res.Sim.Records())
	if err := tr.Close(); err != nil {
		obs.Fatal(err)
	}
	sp.End()
	res.PublishShardTelemetry(obs.Reg)
	return res.Sim, res.Shards
}

// printMultiReports prints every config's banner plus note and report
// (exact) or scaled-estimate line (interval-sampled). The estimate line
// names the records simulated out of those fed and the sampling
// parameters, and claims no error bound.
func printMultiReports(ms *dinero.MultiSim, sampling dinero.Sampling, note string) {
	for i := 0; i < ms.NumConfigs(); i++ {
		cfg := ms.Config(i)
		fmt.Printf("==== config %d/%d: %s ====\n", i+1, ms.NumConfigs(), describeConfig(cfg))
		if sampling.Exact() {
			fmt.Print(note + ms.Report(i))
			continue
		}
		st := ms.ScaledStats(i)
		fmt.Printf("sampled estimate (scale %.4g): accesses %d, misses %d, miss ratio %.4f; "+
			"simulated %d of %d records (interval %d, window %d); no error bound claimed\n",
			ms.RecordScale(), st.Accesses(), st.Misses(), st.MissRatio(),
			ms.SimulatedRecords(), ms.Records(), sampling.Interval, sampling.WindowLen())
	}
}

// describeConfig renders a config header for multi-config output.
func describeConfig(cfg cache.Config) string {
	name := cfg.Name
	if name == "" {
		name = "l1"
	}
	return fmt.Sprintf("%s size=%d bsize=%d assoc=%d repl=%s",
		name, cfg.Size, cfg.BlockSize, cfg.Assoc, cfg.Repl)
}
