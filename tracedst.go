// Package tracedst is the public facade of the trace-driven data-structure
// transformation toolkit — a Go implementation of "Trace Driven Data
// Structure Transformations" (Janjusic, Kavi, Kartsaklis, 2012).
//
// The pipeline has four stages, each usable on its own:
//
//  1. Trace executes a miniC program and records every annotated memory
//     access (the Gleipnir role).
//  2. ParseRule reads a transformation rule (the paper's Listing 5/8/11
//     format) and NewEngine applies it to a trace, producing the trace the
//     program would emit under the alternative layout.
//  3. Simulate replays a trace on a configurable cache and attributes hits
//     and misses to functions and variables (the modified-DineroIV role).
//  4. The analysis helpers (per-set plots, reuse distances, diffs) turn
//     results into the paper's figures.
//
// Minimal end-to-end use:
//
//	res, _  := tracedst.Trace(src, map[string]string{"LEN": "16"}, tracedst.TraceOptions{})
//	rule, _ := tracedst.ParseRule(ruleText)
//	eng, _  := tracedst.NewEngine(tracedst.EngineOptions{}, rule)
//	out, _  := eng.TransformAll(res.Records)
//	sim, _  := tracedst.Simulate(out, tracedst.Paper32KDirect())
//	fmt.Print(sim.Report())
//
// A Record keeps its names out of line: records of one function and
// access expression, and for a local one frame and thread, share one
// immutable Site, read through its Func, Var, Frame and Thread
// accessors. A Record carries no symbol ids; the simulator resolves them
// once per Site.
//
//	r := out[0]
//	fmt.Println(r.Site.Func(), r.Site.Var(), r.Site.Frame(), r.Site.Thread())
package tracedst

import (
	"tracedst/internal/analysis"
	"tracedst/internal/cache"
	"tracedst/internal/dinero"
	"tracedst/internal/profile"
	"tracedst/internal/rules"
	"tracedst/internal/trace"
	"tracedst/internal/tracediff"
	"tracedst/internal/tracer"
	"tracedst/internal/xform"
)

// Re-exported core types. Each alias is the canonical type; see the
// underlying package for full documentation.
type (
	// Record is one Gleipnir trace line.
	Record = trace.Record
	// Site is the function and variable a Record names, with a local's
	// frame and thread, shared by every record of that spelling.
	Site = trace.Site
	// Header is the trace-file preamble.
	Header = trace.Header
	// TraceOptions configure trace collection.
	TraceOptions = tracer.Options
	// TraceResult bundles a collected trace.
	TraceResult = tracer.Result
	// Rule is a parsed transformation rule.
	Rule = rules.Rule
	// EngineOptions tune the transformation engine.
	EngineOptions = xform.Options
	// Engine applies rules to record streams.
	Engine = xform.Engine
	// CacheConfig describes one cache level.
	CacheConfig = cache.Config
	// SimOptions configure a cache simulation.
	SimOptions = dinero.Options
	// Simulator replays traces against a cache hierarchy.
	Simulator = dinero.Simulator
	// Plot is a per-set histogram figure.
	Plot = analysis.Plot
	// Diff aligns an original trace with a transformed one.
	Diff = tracediff.Diff
	// Profile summarises a trace's memory behaviour.
	Profile = profile.Profile
)

// Trace parses and executes a miniC program, collecting its annotated
// memory trace. defines are -D style macro definitions.
func Trace(source string, defines map[string]string, opts TraceOptions) (*TraceResult, error) {
	return tracer.Run(source, defines, opts)
}

// ParseRule reads one transformation rule in the paper's rule-file format.
func ParseRule(src string) (Rule, error) { return rules.Parse(src) }

// NewEngine builds a transformation engine over the given rules.
func NewEngine(opts EngineOptions, rs ...Rule) (*Engine, error) {
	return xform.New(opts, rs...)
}

// Simulate replays records on a single-level cache and returns the
// finished simulator (use Report, Vars, Conflicts, … on it).
func Simulate(records []Record, cfg CacheConfig) (*Simulator, error) {
	sim, err := dinero.New(dinero.Options{L1: cfg})
	if err != nil {
		return nil, err
	}
	sim.Process(records)
	return sim, nil
}

// SimulateWith replays records with full simulation options (second level,
// physical address translation, …).
func SimulateWith(records []Record, opts SimOptions) (*Simulator, error) {
	sim, err := dinero.New(opts)
	if err != nil {
		return nil, err
	}
	sim.Process(records)
	return sim, nil
}

// PerSetPlot builds the per-set histogram of a finished simulation.
func PerSetPlot(title string, sim *Simulator) *Plot {
	return analysis.FromSimulator(title, sim, false)
}

// DiffTraces aligns an original trace with its transformed counterpart.
func DiffTraces(original, transformed []Record) *Diff {
	return tracediff.New(original, transformed)
}

// ProfileTrace summarises per-function/per-variable memory behaviour.
func ProfileTrace(records []Record) *Profile { return profile.New(records) }

// Paper32KDirect is the 32 KB direct-mapped cache of the paper's Figures
// 3-8.
func Paper32KDirect() CacheConfig { return cache.Paper32KDirect() }

// PowerPC440 is the 32 KB 64-way round-robin cache of the paper's
// set-pinning example (Figures 10-11).
func PowerPC440() CacheConfig { return cache.PowerPC440() }

// ParseTrace parses a trace file held in a string.
func ParseTrace(src string) (Header, []Record, error) { return trace.ParseAll(src) }

// FormatTrace renders a trace as Gleipnir text.
func FormatTrace(h Header, records []Record) string { return trace.Format(h, records) }
