package analysis

import (
	"strings"
	"testing"

	"tracedst/internal/cache"
	"tracedst/internal/ctype"
	"tracedst/internal/trace"
	"tracedst/internal/tracer"
	"tracedst/internal/workloads"
)

func TestMissTimelineWindows(t *testing.T) {
	res, err := tracer.Run(workloads.Trans3Contiguous, map[string]string{"LEN": "256"}, tracer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tl, err := MissTimeline(res.Records, cache.Paper32KDirect(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Points) < 2 {
		t.Fatalf("points = %d", len(tl.Points))
	}
	// Windows start at multiples of 100.
	for i, p := range tl.Points {
		if p.StartRecord%100 != 0 {
			t.Errorf("point %d starts at %d", i, p.StartRecord)
		}
		if p.Accesses == 0 {
			t.Errorf("point %d empty", i)
		}
	}
	// Totals match a plain simulation of the same model.
	var acc, miss int64
	for _, p := range tl.Points {
		acc += p.Accesses
		miss += p.Misses
	}
	c, _ := cache.New(cache.Paper32KDirect(), nil)
	var acc2, miss2 int64
	for i := range res.Records {
		r := &res.Records[i]
		kinds := []cache.Kind{}
		switch r.Op {
		case trace.Load:
			kinds = append(kinds, cache.Read)
		case trace.Store:
			kinds = append(kinds, cache.Write)
		case trace.Modify:
			kinds = append(kinds, cache.Read, cache.Write)
		}
		for _, k := range kinds {
			for _, o := range c.Access(k, r.Addr, r.Size, cache.NoOwner, nil) {
				acc2++
				if !o.Hit {
					miss2++
				}
			}
		}
	}
	if acc != acc2 || miss != miss2 {
		t.Errorf("timeline totals %d/%d vs direct %d/%d", acc, miss, acc2, miss2)
	}
}

func TestMissTimelineColdStart(t *testing.T) {
	// A sweep has its misses concentrated early-ish per window but a tiny
	// re-sweep is all hits: the second pass windows must have lower ratios.
	var recs []trace.Record
	mk := func(addr uint64) trace.Record {
		return trace.Record{Op: trace.Load, Addr: addr, Size: 4, Site: trace.NewSite("main", ctype.AccessExpr{})}
	}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 64; i++ {
			recs = append(recs, mk(uint64(i)*32))
		}
	}
	tl, err := MissTimeline(recs, cache.Paper32KDirect(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Points) != 2 {
		t.Fatalf("points = %d", len(tl.Points))
	}
	if tl.Points[0].Ratio() != 1.0 || tl.Points[1].Ratio() != 0.0 {
		t.Errorf("ratios = %v %v", tl.Points[0].Ratio(), tl.Points[1].Ratio())
	}
	peak, ok := tl.PeakWindow()
	if !ok || peak.StartRecord != 0 {
		t.Errorf("peak = %+v ok=%v", peak, ok)
	}
	spark := tl.Sparkline()
	if len(spark) != 2 || spark[0] != '@' || spark[1] != ' ' {
		t.Errorf("sparkline = %q", spark)
	}
	if !strings.Contains(tl.Table(), "100.00%") {
		t.Errorf("table:\n%s", tl.Table())
	}
}

func TestMissTimelineDefaults(t *testing.T) {
	tl, err := MissTimeline(nil, cache.Paper32KDirect(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Window != 256 || len(tl.Points) != 0 {
		t.Errorf("tl = %+v", tl)
	}
	if _, ok := tl.PeakWindow(); ok {
		t.Error("peak of empty timeline")
	}
	if _, err := MissTimeline(nil, cache.Config{Size: 100, BlockSize: 32, Assoc: 1}, 10); err == nil {
		t.Error("bad geometry accepted")
	}
}
