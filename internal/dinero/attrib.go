package dinero

import (
	"sort"

	"tracedst/internal/cache"
	"tracedst/internal/trace"
)

// attrib is one configuration's attribution state: the per-variable series,
// per-function totals and the variable×variable eviction matrix. Simulator
// owns one; the multi-config engine owns one per fast-kernel configuration,
// so both paths share the same bookkeeping (and the same report) down to
// the byte.
type attrib struct {
	syms  *trace.SymTab
	nsets int

	// varsByID / funcsByID are indexed by trace.SymID; nil entries are
	// symbols the simulation never touched.
	varsByID  []*VarSeries
	funcsByID []*FuncStats
	// conflicts is the eviction matrix as a ragged array: row = evictor
	// variable id, column = victim variable id, both grown on demand. A
	// flat increment here replaced a map assign that was ~20% of the
	// multi-config profile.
	conflicts [][]int64
}

func newAttrib(syms *trace.SymTab, nsets int) attrib {
	return attrib{syms: syms, nsets: nsets}
}

// bumpConflict counts one eviction of victim's line by evictor's fill.
func (a *attrib) bumpConflict(evictor trace.SymID, victim cache.OwnerID) {
	i, j := int(evictor), int(victim)
	a.conflicts = growTo(a.conflicts, i+1)
	row := growTo(a.conflicts[i], j+1)
	a.conflicts[i] = row
	row[j]++
}

// growTo returns s extended with zero values to at least n elements. It
// doubles the backing array when it must grow, so feeding ids 0, 1, 2, …
// costs O(log n) allocations rather than one copy per new id.
func growTo[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n > cap(s) {
		grown := make([]T, len(s), max(n, 2*cap(s)))
		copy(grown, s)
		s = grown
	}
	old := len(s)
	s = s[:n]
	clear(s[old:])
	return s
}

func (a *attrib) varAt(id trace.SymID) *VarSeries {
	i := int(id)
	a.varsByID = growTo(a.varsByID, i+1)
	vs := a.varsByID[i]
	if vs == nil {
		vs = newVarSeries(a.syms.Name(id), a.nsets)
		a.varsByID[i] = vs
	}
	return vs
}

func (a *attrib) funcAt(id trace.SymID) *FuncStats {
	i := int(id)
	a.funcsByID = growTo(a.funcsByID, i+1)
	fs := a.funcsByID[i]
	if fs == nil {
		fs = &FuncStats{Name: a.syms.Name(id)}
		a.funcsByID[i] = fs
	}
	return fs
}

// noteBlock attributes one block-granular outcome: per-variable and
// per-function tallies, the variable's per-set series, and — when the fill
// displaced another variable's line — the conflict matrix.
func (a *attrib) noteBlock(vid, fid trace.SymID, set int, hit bool, owner, evicted cache.OwnerID) {
	vs := a.varAt(vid)
	fs := a.funcAt(fid)
	vs.Accesses++
	fs.Accesses++
	if hit {
		vs.Hits++
		fs.Hits++
	} else {
		vs.Misses++
		fs.Misses++
	}
	vs.touch(set, hit)
	if evicted != cache.NoOwner && evicted != owner {
		a.bumpConflict(vid, evicted)
	}
}

// pageAllocs sums the lazily allocated 64-set pages across all variables.
func (a *attrib) pageAllocs() int64 {
	var n int64
	for _, vs := range a.varsByID {
		if vs != nil {
			n += vs.PageAllocs
		}
	}
	return n
}

// vars returns all variable series, materialized and sorted by descending
// access count, then name.
func (a *attrib) vars() []*VarSeries {
	out := a.sortedVars()
	for _, vs := range out {
		vs.materialize()
	}
	return out
}

// sortedVars is vars without materializing the per-set series, for
// readers of the totals alone (the report): the dense PerSet slices cost
// 16 bytes per set per variable.
func (a *attrib) sortedVars() []*VarSeries {
	out := make([]*VarSeries, 0, len(a.varsByID))
	for _, vs := range a.varsByID {
		if vs != nil {
			out = append(out, vs)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Accesses != out[j].Accesses {
			return out[i].Accesses > out[j].Accesses
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// funcs returns per-function stats sorted by descending access count.
func (a *attrib) funcs() []*FuncStats {
	out := make([]*FuncStats, 0, len(a.funcsByID))
	for _, fs := range a.funcsByID {
		if fs != nil {
			out = append(out, fs)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Accesses != out[j].Accesses {
			return out[i].Accesses > out[j].Accesses
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// conflictList returns the eviction matrix sorted by descending count.
func (a *attrib) conflictList() []Conflict {
	var out []Conflict
	for i, row := range a.conflicts {
		for j, n := range row {
			if n == 0 {
				continue
			}
			out = append(out, Conflict{
				Evictor: a.syms.Name(trace.SymID(i)),
				Victim:  a.syms.Name(trace.SymID(j)),
				Count:   n,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].Evictor != out[j].Evictor {
			return out[i].Evictor < out[j].Evictor
		}
		return out[i].Victim < out[j].Victim
	})
	return out
}

// mergeFrom folds other's attribution into a, matching symbols by name so
// the two sides may use different intern tables. Per-variable series merge
// page-wise (per-set counters stay exact), per-function totals and the
// conflict matrix add cell-wise — the attribution half of the sharded
// merge identity tested next to Stats.Merge.
func (a *attrib) mergeFrom(other *attrib) {
	for _, vs := range other.varsByID {
		if vs == nil {
			continue
		}
		dst := a.varAt(a.syms.Intern(vs.Name))
		dst.Accesses += vs.Accesses
		dst.Hits += vs.Hits
		dst.Misses += vs.Misses
		if vs.nsets > dst.nsets {
			grown := make([][]cache.SetStats, (vs.nsets+perSetPage-1)/perSetPage)
			copy(grown, dst.pages)
			dst.pages = grown
			dst.nsets = vs.nsets
			dst.PerSet = nil // force re-materialization at the new width
		}
		for pi, pg := range vs.pages {
			if pg == nil {
				continue
			}
			dpg := dst.pages[pi]
			if dpg == nil {
				dpg = make([]cache.SetStats, perSetPage)
				dst.pages[pi] = dpg
				dst.PageAllocs++
			}
			for off := range pg {
				dpg[off].Hits += pg[off].Hits
				dpg[off].Misses += pg[off].Misses
			}
			dst.dirty = true
		}
	}
	for _, fs := range other.funcsByID {
		if fs == nil {
			continue
		}
		dst := a.funcAt(a.syms.Intern(fs.Name))
		dst.Accesses += fs.Accesses
		dst.Hits += fs.Hits
		dst.Misses += fs.Misses
	}
	for i, row := range other.conflicts {
		for j, n := range row {
			if n == 0 {
				continue
			}
			ev := a.syms.Intern(other.syms.Name(trace.SymID(i)))
			vi := a.syms.Intern(other.syms.Name(trace.SymID(j)))
			a.bumpConflict(ev, cache.OwnerID(vi)) // grows the cell
			a.conflicts[int(ev)][int(vi)] += n - 1
		}
	}
}
