package dinero

import (
	"math/bits"
	"testing"

	"tracedst/internal/cache"
	"tracedst/internal/ctype"
	"tracedst/internal/trace"
)

// TestAttribGrowthAmortized: the attribution tables are indexed by symbol
// id and grown on demand. Feeding N increasing ids must cost O(log N)
// table allocations, not one copy of the whole table per new id.
func TestAttribGrowthAmortized(t *testing.T) {
	const n = 4096
	logN := float64(bits.Len(n))

	allocs := testing.AllocsPerRun(1, func() {
		var s []int64
		for i := 0; i < n; i++ {
			s = growTo(s, i+1)
			s[i]++
		}
	})
	if allocs > 2*logN {
		t.Errorf("growTo over %d ids: %.0f allocations, want O(log n) <= %.0f", n, allocs, 2*logN)
	}

	// One evictor displacing N distinct victims grows a single row.
	allocs = testing.AllocsPerRun(1, func() {
		a := newAttrib(nil, 1)
		for j := 0; j < n; j++ {
			a.bumpConflict(0, cache.OwnerID(j))
		}
	})
	if allocs > 2*logN+1 {
		t.Errorf("conflict row over %d victims: %.0f allocations, want <= %.0f", n, allocs, 2*logN+1)
	}

	// N distinct evictors: one new row each, plus the amortized outer table.
	allocs = testing.AllocsPerRun(1, func() {
		a := newAttrib(nil, 1)
		for i := 0; i < n; i++ {
			a.bumpConflict(trace.SymID(i), 0)
		}
	})
	if allocs > n+2*logN+1 {
		t.Errorf("conflict matrix over %d evictors: %.0f allocations, want <= %.0f", n, allocs, n+2*logN+1)
	}

	// The tables keep their exact length: reports walk every entry.
	a := newAttrib(nil, 1)
	a.bumpConflict(5, 9)
	if len(a.conflicts) != 6 || len(a.conflicts[5]) != 10 || a.conflicts[5][9] != 1 {
		t.Errorf("conflict matrix shape %d×%d, cell %d", len(a.conflicts), len(a.conflicts[5]), a.conflicts[5][9])
	}
}

// TestReportSkipsPerSetSeries: the report prints each variable's totals
// only, so rendering it leaves the dense per-set series unbuilt; the
// series accessors still build them.
func TestReportSkipsPerSetSeries(t *testing.T) {
	sim, err := New(Options{L1: cache.Paper32KDirect()})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]trace.Record, 200)
	for i := range recs {
		recs[i] = trace.Record{Op: trace.Load, Addr: 0x601040 + uint64(i)*32, Size: 4, Func: "main",
			HasSym: true, Vis: trace.Global, Var: ctype.AccessExpr{Root: []string{"a", "b"}[i%2]}}
	}
	sim.Process(recs)
	sim.Report()
	for _, vs := range sim.at.sortedVars() {
		if vs.PerSet != nil {
			t.Fatalf("Report materialized %s's per-set series", vs.Name)
		}
	}
	for _, vs := range sim.Vars() {
		if len(vs.PerSet) != cache.Paper32KDirect().Sets() {
			t.Fatalf("Vars: %s has %d per-set entries", vs.Name, len(vs.PerSet))
		}
	}
}
