package analysis_test

import (
	"fmt"

	"tracedst/internal/analysis"
	"tracedst/internal/ctype"
	"tracedst/internal/trace"
)

// ExampleReuseDistances profiles a tiny block sequence A B A: the second
// access to A has stack distance 1, so it hits in any LRU cache of at
// least two blocks and misses in a one-block cache.
func ExampleReuseDistances() {
	main := trace.NewSite("main", ctype.AccessExpr{})
	recs := []trace.Record{
		{Op: trace.Load, Addr: 0, Size: 4, Site: main},  // A
		{Op: trace.Load, Addr: 32, Size: 4, Site: main}, // B
		{Op: trace.Load, Addr: 0, Size: 4, Site: main},  // A again
	}
	r := analysis.ReuseDistances(recs, 32)
	fmt.Printf("cold=%d missRatio(1)=%.2f missRatio(2)=%.2f\n",
		r.Cold, r.MissRatio(1), r.MissRatio(2))
	// Output: cold=2 missRatio(1)=1.00 missRatio(2)=0.67
}
