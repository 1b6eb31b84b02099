package minic

import (
	"testing"

	"tracedst/internal/workloads"
)

// accessCounter counts the memory events of a run.
type accessCounter int

func (c *accessCounter) Access(AccessOp, uint64, int64, string, int) { *c++ }
func (c *accessCounter) Instrument(bool)                             {}

// BenchmarkInterp measures the bare interpreter, with no listener, on the
// two programs whose tracing dominates the benchmark's set-up: matmul
// N=48 and trans1-soa LEN=32768. ns/access is the time per memory event
// the program makes, counted in a run before the timed ones.
func BenchmarkInterp(b *testing.B) {
	for _, w := range []struct {
		name    string
		src     string
		defines map[string]string
	}{
		{"matmul", workloads.MatMul, map[string]string{"N": "48"}},
		{"trans1-soa", workloads.Trans1SoA, map[string]string{"LEN": "32768"}},
	} {
		b.Run(w.name, func(b *testing.B) {
			prog, err := Parse(w.src, w.defines)
			if err != nil {
				b.Fatal(err)
			}
			var n accessCounter
			if _, err := NewInterp(prog, &n).Run(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewInterp(prog, nil).Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/access")
		})
	}
}
