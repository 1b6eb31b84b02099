package dinero

import (
	"math/bits"
	"testing"

	"tracedst/internal/cache"
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
