package dinero

import (
	"fmt"
	"testing"

	"tracedst/internal/cache"
	"tracedst/internal/ctype"
	"tracedst/internal/trace"
)

// benchRecords builds a synthetic trace: nvars global arrays strided over
// repeatedly, with every eighth access an unannotated (nosym) one — enough
// symbol churn to make per-record attribution cost visible.
func benchRecords(n, nvars int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		v := i % nvars
		r := trace.Record{
			Op:   trace.Load,
			Addr: uint64(0x601000 + v*4096 + (i/nvars)%64*32),
			Size: 4,
			Site: trace.NewSite(fmt.Sprintf("func%d", v%4), ctype.AccessExpr{}),
		}
		if i%8 != 7 {
			r.HasSym = true
			r.Vis = trace.Global
			r.Site = trace.NewSite(r.Site.Func(), ctype.AccessExpr{Root: fmt.Sprintf("glArray%d", v)})
		}
		recs[i] = r
	}
	return recs
}

func benchL1() cache.Config {
	return cache.Config{Size: 8192, BlockSize: 32, Assoc: 2}
}

// BenchmarkFeedInterned measures the hot path the parallel sweeps use:
// records pre-interned against the simulator's own symbol table, so Feed
// attributes by integer id without hashing strings or allocating.
func BenchmarkFeedInterned(b *testing.B) {
	recs := benchRecords(4096, 16)
	tab := trace.NewSymTab()
	trace.InternRecords(tab, recs)
	s, err := New(Options{L1: benchL1(), Syms: tab})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Feed(&recs[i%len(recs)])
	}
}

// BenchmarkFeedStrings measures the fallback path: no shared table, so the
// simulator interns each record's strings itself.
func BenchmarkFeedStrings(b *testing.B) {
	recs := benchRecords(4096, 16)
	s, err := New(Options{L1: benchL1()})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Feed(&recs[i%len(recs)])
	}
}
