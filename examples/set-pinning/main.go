// Set pinning: the paper's transformation 3 on the PowerPC 440 cache
// (32 KB, 64-way, 32-byte lines, round-robin). A contiguous sweep spreads
// over all 16 sets and would trash a co-resident working set; striding the
// array confines it to one set — at a 16× space cost — leaving the other 15
// sets untouched. We demonstrate both the pinning and the §IV.A.3 residency
// arithmetic (a set holds 64×32 = 2048 bytes, so 4096 pinned bytes achieve
// 50% residency).
//
//	go run ./examples/set-pinning
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
	"tracedst/internal/tracer"
	"tracedst/internal/workloads"
	"tracedst/internal/xform"
)

const n = 1024 // ints → 4096 bytes, the paper's example size

func main() {
	defines := map[string]string{"LEN": fmt.Sprint(n)}
	orig, err := tracer.Run(workloads.Trans3Contiguous, defines, tracer.Options{})
	if err != nil {
		fatal(err)
	}
	rule, err := rules.Parse(workloads.RuleTrans3ForLen(n, 16, 8))
	if err != nil {
		fatal(err)
	}
	eng, err := xform.New(xform.Options{}, rule)
	if err != nil {
		fatal(err)
	}
	pinned, err := eng.TransformAll(orig.Records)
	if err != nil {
		fatal(err)
	}

	before := simulate(orig.Records)
	after := simulate(pinned)

	show := func(tag string, sim *dinero.Simulator, arrVar string) {
		p := analysis.FromSimulator(tag, sim, false)
		s, ok := p.SeriesByLabel(arrVar)
		if !ok {
			fatal(fmt.Errorf("%s series missing", arrVar))
		}
		occ := analysis.OccupancyOf(s)
		fmt.Printf("%-12s %-20s sets touched: %2d  dominant set %2d (%.0f%%)  misses %d\n",
			tag, arrVar, occ.SetsTouched, occ.DominantSet, 100*occ.DominantShare, occ.Misses)
	}
	fmt.Printf("PowerPC 440 L1D: 32 KB, 64-way, 32 B lines, round-robin (16 sets)\n\n")
	show("contiguous", before, "lContiguousArray")
	show("pinned", after, "lSetHashingArray")

	// Residency check: replay the pinned addresses into a fresh cache and
	// count how many of the 128 blocks survive the sweep.
	c, err := cache.New(cache.PowerPC440(), nil)
	if err != nil {
		fatal(err)
	}
	var blocks []uint64
	seen := map[uint64]bool{}
	for i := range pinned {
		r := &pinned[i]
		if r.HasSym && r.Site.Var().Root == "lSetHashingArray" {
			c.Access(cache.Write, r.Addr, r.Size, 1, nil)
			b := r.Addr >> 5
			if !seen[b] {
				seen[b] = true
				blocks = append(blocks, b)
			}
		}
	}
	resident := c.ResidentBlocks(blocks)
	fmt.Printf("\nresidency after pinned sweep: %d of %d blocks (%.0f%%) — one set holds 64×32 = 2048 of 4096 bytes\n",
		resident, len(blocks), 100*float64(resident)/float64(len(blocks)))

	fmt.Printf("\nspace cost: %d → %d elements (%d KB wasted for placement control)\n",
		n, 16*n, (16*n-n)*4/1024)
	fmt.Printf("inserted index-arithmetic loads: %d\n", eng.Stats().Inserted)
}

func simulate(recs []trace.Record) *dinero.Simulator {
	sim, err := dinero.New(dinero.Options{L1: cache.PowerPC440()})
	if err != nil {
		fatal(err)
	}
	sim.Process(recs)
	return sim
}

// Errors go through the telemetry sink, so the example fails the same way
// the CLIs do (and stays machine-parseable under a JSON logger).
func init() { telemetry.UseTextLogger("set-pinning") }

func fatal(err error) {
	telemetry.L().Error(err.Error())
	os.Exit(1)
}
