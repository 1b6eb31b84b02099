// SoA→AoS: the paper's transformation 1, end to end. We trace the
// structure-of-arrays program once, then explore the array-of-structures
// layout purely by rewriting the trace — no source change — and compare
// cache behaviour and the resulting trace side by side.
//
//	go run ./examples/soa-aos
package main

import (
	"fmt"
	"os"

	"tracedst/internal/analysis"
	"tracedst/internal/cache"
	"tracedst/internal/dinero"
	"tracedst/internal/rules"
	"tracedst/internal/telemetry"
	"tracedst/internal/trace"
	"tracedst/internal/tracediff"
	"tracedst/internal/tracer"
	"tracedst/internal/workloads"
	"tracedst/internal/xform"
)

const n = 64 // element count (the paper's figures use 16)

func main() {
	defines := map[string]string{"LEN": fmt.Sprint(n)}

	// 1. Trace the original structure-of-arrays program (Listing 4).
	orig, err := tracer.Run(workloads.Trans1SoA, defines, tracer.Options{})
	if err != nil {
		fatal(err)
	}

	// 2. Apply the Listing 5 rule to explore the AoS layout.
	rule, err := rules.Parse(workloads.RuleTrans1ForLen(n))
	if err != nil {
		fatal(err)
	}
	eng, err := xform.New(xform.Options{}, rule)
	if err != nil {
		fatal(err)
	}
	transformed, err := eng.TransformAll(orig.Records)
	if err != nil {
		fatal(err)
	}
	st := eng.Stats()
	fmt.Printf("rule %s: %d/%d records rewritten (%s → %s)\n\n",
		rule.Kind(), st.Matched, st.Total, rule.InRoot(), rule.OutRoot())

	// 3. Show a diff excerpt (Figure 5).
	d := tracediff.New(orig.Records, transformed)
	fmt.Println("trace diff (first rewritten lines):")
	printed := 0
	for _, row := range d.Rows {
		if row.Kind == tracediff.Rewritten && printed < 6 {
			fmt.Printf("  %-46s => %s\n", orig.Records[row.A].String(), transformed[row.B].String())
			printed++
		}
	}
	ds := d.Stats()
	fmt.Printf("  (%d same, %d rewritten)\n\n", ds.Same, ds.Rewritten)

	// 4. Compare cache behaviour of both layouts on a small cache chosen so
	//    the layouts differ: with SoA, touching mX[i] and mY[i] together
	//    costs two blocks; AoS collocates them.
	cfg := cache.Config{Name: "tiny-l1", Size: 1024, BlockSize: 32, Assoc: 1}
	before := simulate(orig.Records, cfg)
	after := simulate(transformed, cfg)

	report := func(tag string, sim *dinero.Simulator, structVar string) {
		s := sim.L1().Stats()
		vs := sim.Var(structVar)
		fmt.Printf("%-12s total misses %4d   %s: %d accesses, %d misses\n",
			tag, s.Misses(), structVar, vs.Accesses, vs.Misses)
	}
	report("SoA (orig)", before, "lSoA")
	report("AoS (xform)", after, "lAoS")

	// 5. Per-set occupancy of the structure in both layouts.
	fmt.Println("\nper-set occupancy:")
	pb := analysis.FromSimulator("SoA", before, false)
	pa := analysis.FromSimulator("AoS", after, false)
	if s, ok := pb.SeriesByLabel("lSoA"); ok {
		occ := analysis.OccupancyOf(s)
		fmt.Printf("  lSoA touches %d sets (dominant share %.0f%%)\n", occ.SetsTouched, 100*occ.DominantShare)
	}
	if s, ok := pa.SeriesByLabel("lAoS"); ok {
		occ := analysis.OccupancyOf(s)
		fmt.Printf("  lAoS touches %d sets (dominant share %.0f%%)\n", occ.SetsTouched, 100*occ.DominantShare)
	}
}

func simulate(recs []trace.Record, cfg cache.Config) *dinero.Simulator {
	sim, err := dinero.New(dinero.Options{L1: cfg})
	if err != nil {
		fatal(err)
	}
	sim.Process(recs)
	return sim
}

// Errors go through the telemetry sink, so the example fails the same way
// the CLIs do (and stays machine-parseable under a JSON logger).
func init() { telemetry.UseTextLogger("soa-aos") }

func fatal(err error) {
	telemetry.L().Error(err.Error())
	os.Exit(1)
}
