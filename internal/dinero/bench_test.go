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
// symbol churn to make per-record attribution cost visible. Records of one
// spelling share one site, as a decoder's do.
func benchRecords(n, nvars int) []trace.Record {
	nosym, sym := make([]*trace.Site, nvars), make([]*trace.Site, nvars)
	for v := range sym {
		fn := fmt.Sprintf("func%d", v%4)
		nosym[v] = trace.NewSite(fn, ctype.AccessExpr{})
		sym[v] = trace.NewSite(fn, ctype.AccessExpr{Root: fmt.Sprintf("glArray%d", v)})
	}
	recs := make([]trace.Record, n)
	for i := range recs {
		v := i % nvars
		r := trace.Record{
			Op:   trace.Load,
			Addr: uint64(0x601000 + v*4096 + (i/nvars)%64*32),
			Size: 4,
			Site: nosym[v],
		}
		if i%8 != 7 {
			r.HasSym = true
			r.Vis = trace.Global
			r.Site = sym[v]
		}
		recs[i] = r
	}
	return recs
}

// freshSites gives every record a site of its own naming what its site
// names, so no two records share one: the site memo's worst case.
func freshSites(recs []trace.Record) []trace.Record {
	out := append([]trace.Record(nil), recs...)
	for i := range out {
		out[i].Site = trace.NewSite(out[i].Site.Func(), out[i].Site.Var())
	}
	return out
}

func benchL1() cache.Config {
	return cache.Config{Size: 8192, BlockSize: 32, Assoc: 2}
}

// BenchmarkFeed measures the attributing hot path over records that share
// a site per spelling, as decoded and traced records do: ids resolve
// through the site memo.
func BenchmarkFeed(b *testing.B) {
	benchFeed(b, benchRecords(4096, 16))
}

// BenchmarkFeedFreshSites measures the memo's worst case: every record has
// a site of its own, so every access resolves its names in the table.
func BenchmarkFeedFreshSites(b *testing.B) {
	benchFeed(b, freshSites(benchRecords(4096, 16)))
}

func benchFeed(b *testing.B, recs []trace.Record) {
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
