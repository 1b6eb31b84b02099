// Locality study: compare the AoS and SoA particle layouts with
// layout-independent metrics — reuse-distance miss-ratio curves and memory
// profiles — rather than a single cache configuration. The position-only
// update touches half of every AoS particle, so the AoS working set is
// twice the SoA one at every cache size.
//
//	go run ./examples/locality
package main

import (
	"fmt"
	"os"

	"tracedst/internal/analysis"
	"tracedst/internal/profile"
	"tracedst/internal/telemetry"
	"tracedst/internal/trace"
	"tracedst/internal/tracer"
	"tracedst/internal/workloads"
)

const n = 512

func main() {
	defines := map[string]string{"N": fmt.Sprint(n)}
	aos, err := tracer.Run(workloads.ParticlesAoS, defines, tracer.Options{})
	if err != nil {
		fatal(err)
	}
	soa, err := tracer.Run(workloads.ParticlesSoA, defines, tracer.Options{})
	if err != nil {
		fatal(err)
	}

	// Working-set comparison from the memory profile.
	pa, ps := profile.New(aos.Records), profile.New(soa.Records)
	fmt.Printf("position update over %d particles\n\n", n)
	fmt.Printf("%-8s %10s %16s\n", "layout", "records", "working set")
	fmt.Printf("%-8s %10d %12d blocks\n", "AoS", pa.Records, pa.WorkingSet)
	fmt.Printf("%-8s %10d %12d blocks\n\n", "SoA", ps.Records, ps.WorkingSet)

	// Footprint of the particle data alone (excluding loop bookkeeping).
	fpAoS := trace.Footprint(trace.Filter(aos.Records, trace.ByVar("particles")), 32)
	fpSoA := trace.Footprint(trace.Filter(soa.Records, trace.ByVar("particles")), 32)
	fmt.Printf("particle-data footprint: AoS %d blocks, SoA %d blocks (%.1fx denser)\n\n",
		fpAoS, fpSoA, float64(fpAoS)/float64(fpSoA))

	// Miss-ratio curves: what a fully-associative LRU cache of any size
	// would do — the crossover shows the cache size below which layout
	// matters.
	ra := analysis.ReuseDistances(aos.Records, 32)
	rs := analysis.ReuseDistances(soa.Records, 32)
	fmt.Printf("%-16s %10s %10s\n", "cache (blocks)", "AoS miss%", "SoA miss%")
	for _, c := range []int64{4, 8, 16, 32, 64, 128, 256} {
		fmt.Printf("%-16d %9.2f%% %9.2f%%\n", c, 100*ra.MissRatio(c), 100*rs.MissRatio(c))
	}
	fmt.Println()
	fmt.Print(ra.Histogram())
	fmt.Println()
	fmt.Print(rs.Histogram())
}

// Errors go through the telemetry sink, so the example fails the same way
// the CLIs do (and stays machine-parseable under a JSON logger).
func init() { telemetry.UseTextLogger("locality") }

func fatal(err error) {
	telemetry.L().Error(err.Error())
	os.Exit(1)
}
