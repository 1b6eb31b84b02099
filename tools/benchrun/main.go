// Command benchrun is the repository benchmark. It runs named workloads
// over the paper's pipeline — trace, transform, simulate, and the
// tracedstd service around it — and prints every end-to-end metric by
// name with its unit and sample count, checking every output against an
// oracle computed outside the timed path. With -trace 1 it also runs a
// separate traced window and prints the per-layer metrics, measured from
// spans the harness records around each call it makes into a layer.
//
//	benchrun -workload glb-attrib -seed 1 -seconds 10 -trace 0
//	benchrun -seed 1 -out results.jsonl          # every workload in turn
//	benchrun -compare a.jsonl b.jsonl            # two result sets
//
// BENCHMARK.json, read from the current directory (the repository root),
// declares the workloads and metrics; the last line of standard output is
// one JSON object with the keys correct, attempted, failed and metrics.
// Exit status: 0 when every output was correct, 1 when an operation
// failed or an oracle disagreed, 2 on usage or set-up errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"
)

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the harness reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, w := range s.Workloads {
		if findWorkload(w.Name) == nil {
			return nil, fmt.Errorf("%s: workload %q is not implemented", path, w.Name)
		}
	}
	if len(s.Workloads) != len(allWorkloads) {
		return nil, fmt.Errorf("%s declares %d workloads, the harness implements %d", path, len(s.Workloads), len(allWorkloads))
	}
	return &s, nil
}

// runConfig holds the settings of one workload run.
type runConfig struct {
	seed      int64
	window    time.Duration // measured time; split in half when traced
	traced    bool
	setupReps int           // set-ups timed at least; setup_s is their median
	setupTime time.Duration // and at least this long in total
	warmup    time.Duration // service warm-up traffic
	dir       string        // scratch directory, removed after the run
}

// rng returns the run's input generator: the same seed gives the same
// inputs.
func (rc *runConfig) rng() *rand.Rand { return rand.New(rand.NewSource(rc.seed)) }

// instance is one set-up workload, ready to measure.
type instance interface {
	// reference computes the oracle's expected outputs, outside every
	// timed interval.
	reference() error
	// warm runs untimed operations, so caches fill and lazy set-up
	// finishes before timing starts.
	warm() error
	// measure runs operations for d with tracing off.
	measure(d time.Duration) *window
	// traced runs operations for d while recording spans into log and
	// returns their window and the workload's per-layer metrics, the
	// tracing overhead among them; base is the untraced window.
	traced(d time.Duration, log *spanLog, base *window) (*window, map[string]float64, error)
	close()
}

// workload is one named benchmark scenario.
type workload struct {
	name string
	// procs is how many cores the workload needs to mean what it claims;
	// on a smaller host its numbers are reported as unmeasured.
	procs int
	setup func(rc *runConfig, dir string) (instance, error)
}

var allWorkloads = []*workload{
	{name: "glb-attrib", procs: 1, setup: setupAttrib},
	{name: "glb-sharded", procs: 2, setup: setupSharded},
	{name: "layout-sweep", procs: 1, setup: setupSweep},
	{name: "tracedstd-hit", procs: 1, setup: setupHit},
	{name: "tracedstd-miss", procs: 1, setup: setupMiss},
}

func findWorkload(name string) *workload {
	for _, w := range allWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// window is what one measured interval produced.
type window struct {
	lat       []float64 // per-operation latency in ms; +Inf for a failed operation
	records   int64     // input records the successful operations covered
	recPerS   float64
	attempted int
	failed    int
	errs      []string // the first failure reasons
	allocB    float64  // heap bytes allocated during the window
	gcCycles  float64
}

// fail counts a failed operation: it misses every latency limit.
func (w *window) fail(err error) {
	w.failed++
	w.lat = append(w.lat, math.Inf(1))
	if len(w.errs) < 5 {
		w.errs = append(w.errs, err.Error())
	}
}

// measured wraps fn with the process's allocation and GC counters.
func measured(fn func() *window) *window {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	a0, g0 := s[0].Value.Uint64(), s[1].Value.Uint64()
	w := fn()
	metrics.Read(s)
	w.allocB = float64(s[0].Value.Uint64() - a0)
	w.gcCycles = float64(s[1].Value.Uint64() - g0)
	return w
}

func sinceMS(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is one workload run, as printed and as stored by -out.
type result struct {
	Workload   string           `json:"workload"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Trace      bool             `json:"trace"`
	Correct    bool             `json:"correct"`
	Attempted  int              `json:"attempted"`
	Failed     int              `json:"failed"`
	Errors     []string         `json:"errors,omitempty"`
	Metrics    map[string]value `json:"metrics"`
	Tail       *tail            `json:"tail,omitempty"`
	Unmeasured bool             `json:"unmeasured,omitempty"`
	Provenance *provenance      `json:"provenance,omitempty"`
}

// tail is the highest percentile of operation latency with at least ten
// samples beyond it.
type tail struct {
	Percentile float64 `json:"percentile"`
	MS         float64 `json:"ms"`
	N          int     `json:"n"`
}

// run sets up, measures and checks one workload.
func run(spec *benchSpec, w *workload, rc *runConfig, log *spanLog) (*result, error) {
	if err := os.MkdirAll(rc.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(rc.dir)

	// Set up several times and keep the last instance: setup_s is the
	// median, steadier than any single set-up.
	var inst instance
	var setups []float64
	var spent time.Duration
	for i := 0; i < rc.setupReps || spent < rc.setupTime; i++ {
		dir := filepath.Join(rc.dir, fmt.Sprintf("setup%d", i))
		if inst != nil {
			inst.close()
			os.RemoveAll(filepath.Join(rc.dir, fmt.Sprintf("setup%d", i-1)))
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var err error
		inst, err = w.setup(rc, dir)
		took := time.Since(t0)
		spent += took
		setups = append(setups, took.Seconds())
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	defer inst.close()
	if err := inst.reference(); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if err := inst.warm(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	d := rc.window
	if rc.traced {
		d /= 2
	}
	base := measured(func() *window { return inst.measure(d) })
	res := &result{
		Workload:   w.name,
		Seed:       rc.seed,
		Seconds:    rc.window.Seconds(),
		Trace:      rc.traced,
		Attempted:  base.attempted,
		Failed:     base.failed,
		Errors:     base.errs,
		Metrics:    map[string]value{},
		Unmeasured: runtime.NumCPU() < w.procs,
	}
	n := len(base.lat)
	if p, v := tailPercentile(base.lat); p > 0 {
		res.Tail = &tail{Percentile: p, MS: finite(v), N: n}
	}
	// The untraced window's metrics. BENCHMARK.json declares each either
	// as end-to-end (gated by a bound) or, where its run-to-run spread on
	// the host it was built on exceeded 10%, as per-layer; the untraced
	// run records them all.
	got := map[string]value{
		"setup_s":          {median(setups), "", len(setups)},
		"op_p50_ms":        {median(base.lat), "", n},
		"op_p90_ms":        {percentile(base.lat, 90), "", n},
		"rec_per_s":        {base.recPerS, "", n},
		"alloc_b_per_rec":  {base.allocB / float64(max(base.records, 1)), "", n},
		"gc.cycles_per_op": {base.gcCycles / float64(max(base.attempted, 1)), "", n},
	}
	decl := spec.EndToEnd
	if rc.traced {
		decl = spec.PerLayer
		tw, layers, err := inst.traced(d, log, base)
		if err != nil {
			return nil, err
		}
		res.Attempted += tw.attempted
		res.Failed += tw.failed
		res.Errors = append(res.Errors, tw.errs...)
		for k, v := range layers {
			got[k] = value{Value: v, N: len(tw.lat)}
		}
	}
	if err := fill(res, spec, decl, got, rc.traced); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// fill copies every metric in got into res, and makes sure res holds each
// metric decl lists: a per-layer metric the workload did not produce
// reads 0 (the harness made no call into that layer). A metric
// BENCHMARK.json does not declare, or a missing end-to-end metric, is a
// harness bug.
func fill(res *result, spec *benchSpec, decl []metricSpec, got map[string]value, zeroMissing bool) error {
	units := map[string]string{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		units[m.Name] = m.Unit
	}
	for name, v := range got {
		unit, ok := units[name]
		if !ok {
			return fmt.Errorf("workload %s produced undeclared metric %s", res.Workload, name)
		}
		v.Value, v.Unit = finite(v.Value), unit
		res.Metrics[name] = v
	}
	for _, m := range decl {
		if _, ok := res.Metrics[m.Name]; !ok {
			if !zeroMissing {
				return fmt.Errorf("workload %s produced no %s", res.Workload, m.Name)
			}
			res.Metrics[m.Name] = value{Unit: m.Unit}
		}
	}
	return nil
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// finite maps a non-finite value (a percentile that reached a failed
// operation) onto 0, which JSON can carry; the failure itself is counted
// in failed.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// printHuman prints every metric res holds, end-to-end ones first, to
// standard error.
func printHuman(res *result, spec *benchSpec) {
	note := ""
	if res.Unmeasured {
		note = fmt.Sprintf("  [unmeasured: needs more than the host's %d cores]", runtime.NumCPU())
	}
	fmt.Fprintf(os.Stderr, "%s seed=%d attempted=%d failed=%d correct=%t%s\n",
		res.Workload, res.Seed, res.Attempted, res.Failed, res.Correct, note)
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if v, ok := res.Metrics[m.Name]; ok {
			fmt.Fprintf(os.Stderr, "  %-28s %14.6g %-13s n=%d\n", m.Name, v.Value, m.Unit, v.N)
		}
	}
	if res.Tail != nil {
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %-13s n=%d (p%g)\n", "op_tail_ms", res.Tail.MS, "ms", res.Tail.N, res.Tail.Percentile)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(os.Stderr, "  error: %s\n", e)
	}
}

func appendJSONL(path string, v any) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := json.NewEncoder(f).Encode(v); err != nil {
		return err
	}
	return f.Close()
}

func main() {
	name := flag.String("workload", "", "workload to run (default: every workload in turn)")
	seed := flag.Int64("seed", 1, "input seed: the header PID of the mixed trace, and the PIDs and client IDs of service uploads")
	seconds := flag.Float64("seconds", 0, "measured seconds per workload run, split between an untraced and a traced window with -trace 1 (default: run_seconds of BENCHMARK.json)")
	traceFlag := flag.Int("trace", 0, "1 = add a traced window and print the per-layer metrics instead of the end-to-end ones")
	out := flag.String("out", "", "append each run, with provenance, as one JSON line to this file")
	spansOut := flag.String("spans-out", "", "write the traced window's spans as JSONL to this file (with -trace 1)")
	compare := flag.Bool("compare", false, "compare two result files: benchrun -compare A.jsonl B.jsonl")
	flag.Parse()

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		os.Exit(2)
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchrun: usage: benchrun -compare A.jsonl B.jsonl")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1)))
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if flag.NArg() != 0 || *traceFlag < 0 || *traceFlag > 1 || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	todo := allWorkloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchrun: unknown workload %q\n", *name)
			os.Exit(2)
		}
		todo = []*workload{w}
	}

	traced := *traceFlag == 1
	var log *spanLog
	if traced {
		log = &spanLog{}
	}
	decl := spec.EndToEnd
	if traced {
		decl = spec.PerLayer
	}
	sum := summary{Correct: true, Metrics: map[string]value{}}
	for _, w := range todo {
		rc := &runConfig{
			seed:      *seed,
			window:    time.Duration(*seconds * float64(time.Second)),
			traced:    traced,
			setupReps: 3,
			setupTime: time.Second,
			warmup:    3 * time.Second,
			dir:       filepath.Join(stateRoot, fmt.Sprintf("%s-%d", w.name, os.Getpid())),
		}
		res, err := run(spec, w, rc, log)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrun: %s: %v\n", w.name, err)
			os.Exit(2)
		}
		printHuman(res, spec)
		if *out != "" {
			res.Provenance = collectProvenance(rc, w)
			if err := appendJSONL(*out, res); err != nil {
				fmt.Fprintln(os.Stderr, "benchrun:", err)
				os.Exit(2)
			}
		}
		sum.Correct = sum.Correct && res.Correct
		sum.Attempted += res.Attempted
		sum.Failed += res.Failed
		for _, m := range decl {
			key := m.Name
			if len(todo) > 1 {
				key = w.name + "." + m.Name
			}
			sum.Metrics[key] = value{Value: res.Metrics[m.Name].Value, Unit: m.Unit}
		}
	}
	if *spansOut != "" && log != nil {
		if err := log.writeJSONL(*spansOut); err != nil {
			fmt.Fprintln(os.Stderr, "benchrun:", err)
			os.Exit(2)
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !sum.Correct {
		os.Exit(1)
	}
}

// stateRoot holds every run's scratch files, inside the directory the
// benchmark is run from.
const stateRoot = ".bench_build/state"

// mismatch reports an output that differs from the oracle's.
func mismatch(format string, args ...any) error {
	return fmt.Errorf("output differs from the oracle: "+format, args...)
}
