package experiments

import (
	"context"
	"runtime"
	"testing"
)

// sweepRecordCount totals the trace records simulated by one full Sweeps
// run: every (size, side) point replays its whole trace.
func sweepRecordCount(b *testing.B) int64 {
	var total int64
	for _, sp := range sweepSpecs() {
		orig, err := sp.orig.get()
		if err != nil {
			b.Fatal(err)
		}
		xf, err := sp.xform.get()
		if err != nil {
			b.Fatal(err)
		}
		total += int64(len(orig)+len(xf)) * int64(len(sp.sizes))
	}
	return total
}

// BenchmarkSweepSerialVsParallel measures the full layout-sweep engine with
// one worker vs GOMAXPROCS workers. Traces are memoized, so the timed region
// is pure simulation; the custom metric reports simulated trace records per
// second so runs on different machines are comparable.
func BenchmarkSweepSerialVsParallel(b *testing.B) {
	ctx := context.Background()
	if _, err := Sweeps(ctx, RunOptions{Workers: 1}); err != nil { // warm the trace memos
		b.Fatal(err)
	}
	recs := sweepRecordCount(b)
	run := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Sweeps(ctx, RunOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(recs)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		}
	}
	b.Run("serial", run(1))
	b.Run("parallel", run(runtime.GOMAXPROCS(0)))
}
