package dinero

import (
	"cmp"
	"slices"
	"strings"

	"tracedst/internal/cache"
)

// attrib is one configuration's attribution state: the per-variable series,
// per-function totals and the variable×variable eviction matrix. MultiSim
// owns one per configuration, whichever engine runs it, so both engines
// share the same bookkeeping (and the same report) down to the byte.
type attrib struct {
	syms  *symTab
	nsets int
	st    *simState // where its series, totals and pages come from

	// varsByID / funcsByID are indexed by symID; nil entries are
	// symbols the simulation never touched.
	varsByID  []*VarSeries
	funcsByID []*FuncStats
	// conflicts is the eviction matrix as a ragged array: row = evictor
	// variable id, column = victim variable id, both grown on demand. A
	// flat increment here replaced a map assign that was ~20% of the
	// multi-config profile.
	conflicts [][]int64
}

func newAttrib(syms *symTab, nsets int) attrib {
	return attrib{syms: syms, nsets: nsets}
}

// bumpConflict counts one eviction of victim's line by evictor's fill.
func (a *attrib) bumpConflict(evictor symID, victim cache.OwnerID) {
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

// varAt returns id's series, taking it from the state on first sight.
// Only a new id stores the grown table back, so the per-access lookup of
// a known id writes no slice header.
func (a *attrib) varAt(id symID) *VarSeries {
	if int(id) < len(a.varsByID) {
		if vs := a.varsByID[id]; vs != nil {
			return vs
		}
	}
	a.varsByID = growTo(a.varsByID, int(id)+1)
	vs := a.st.varSeries(a.syms.name(id), a.nsets)
	a.varsByID[id] = vs
	return vs
}

// funcAt returns id's totals, taking them from the state on first sight
// (see varAt).
func (a *attrib) funcAt(id symID) *FuncStats {
	if int(id) < len(a.funcsByID) {
		if fs := a.funcsByID[id]; fs != nil {
			return fs
		}
	}
	a.funcsByID = growTo(a.funcsByID, int(id)+1)
	fs := a.st.funcStats(a.syms.name(id))
	a.funcsByID[id] = fs
	return fs
}

// varNamed returns the series for one variable (nil when unseen).
func (a *attrib) varNamed(name string) *VarSeries {
	id, ok := a.syms.ids[name]
	if !ok || int(id) >= len(a.varsByID) {
		return nil
	}
	vs := a.varsByID[id]
	if vs != nil {
		vs.materialize()
	}
	return vs
}

// noteBlock attributes one block-granular outcome: per-variable and
// per-function tallies, the variable's per-set series, and — when the fill
// displaced another variable's line — the conflict matrix.
func (a *attrib) noteBlock(vid, fid symID, set int, hit bool, owner, evicted cache.OwnerID) {
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

// pageAllocs sums the 64-set pages all variables counted in.
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
	out := a.sortedVars(nil)
	for _, vs := range out {
		vs.materialize()
	}
	return out
}

// sortedVars is vars without materializing the per-set series, for
// readers of the totals alone (the report): the dense PerSet slices cost
// 16 bytes per set per variable. It reuses dst's storage.
func (a *attrib) sortedVars(dst []*VarSeries) []*VarSeries {
	out := appendNonNil(dst[:0], a.varsByID)
	slices.SortFunc(out, func(x, y *VarSeries) int { return byAccesses(x.Accesses, y.Accesses, x.Name, y.Name) })
	return out
}

// funcs returns per-function stats sorted by descending access count,
// reusing dst's storage.
func (a *attrib) funcs(dst []*FuncStats) []*FuncStats {
	out := appendNonNil(dst[:0], a.funcsByID)
	slices.SortFunc(out, func(x, y *FuncStats) int { return byAccesses(x.Accesses, y.Accesses, x.Name, y.Name) })
	return out
}

// appendNonNil appends the non-nil entries of byID to dst, growing it at
// most once, to fit.
func appendNonNil[T any](dst, byID []*T) []*T {
	n := 0
	for _, p := range byID {
		if p != nil {
			n++
		}
	}
	dst = slices.Grow(dst, n)
	for _, p := range byID {
		if p != nil {
			dst = append(dst, p)
		}
	}
	return dst
}

// byAccesses orders rows by descending access count, then by name.
func byAccesses(xAcc, yAcc int64, xName, yName string) int {
	if c := cmp.Compare(yAcc, xAcc); c != 0 {
		return c
	}
	return strings.Compare(xName, yName)
}

// conflictCell is one nonzero cell of the eviction matrix.
type conflictCell struct {
	count           int64
	evictor, victim symID
}

// sortedConflicts returns the eviction matrix's nonzero cells sorted by
// descending count, then by evictor and victim name, reusing dst's
// storage: the rows of conflictList, at 16 bytes a row instead of a
// Conflict's 40.
func (a *attrib) sortedConflicts(dst []conflictCell) []conflictCell {
	n := 0
	for _, row := range a.conflicts {
		for _, c := range row {
			if c != 0 {
				n++
			}
		}
	}
	out := slices.Grow(dst[:0], n)
	for i, row := range a.conflicts {
		for j, c := range row {
			if c != 0 {
				out = append(out, conflictCell{c, symID(i), symID(j)})
			}
		}
	}
	slices.SortFunc(out, func(x, y conflictCell) int {
		if c := cmp.Compare(y.count, x.count); c != 0 {
			return c
		}
		if c := strings.Compare(a.syms.name(x.evictor), a.syms.name(y.evictor)); c != 0 {
			return c
		}
		return strings.Compare(a.syms.name(x.victim), a.syms.name(y.victim))
	})
	return out
}

// conflictList returns the eviction matrix sorted by descending count.
func (a *attrib) conflictList() []Conflict {
	cells := a.sortedConflicts(nil)
	out := make([]Conflict, len(cells))
	for i, c := range cells {
		out[i] = Conflict{Evictor: a.syms.name(c.evictor), Victim: a.syms.name(c.victim), Count: c.count}
	}
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
		dst := a.varAt(a.syms.intern(vs.Name))
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
				dpg = a.st.page()
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
		dst := a.funcAt(a.syms.intern(fs.Name))
		dst.Accesses += fs.Accesses
		dst.Hits += fs.Hits
		dst.Misses += fs.Misses
	}
	for i, row := range other.conflicts {
		for j, n := range row {
			if n == 0 {
				continue
			}
			ev := a.syms.intern(other.syms.name(symID(i)))
			vi := a.syms.intern(other.syms.name(symID(j)))
			a.bumpConflict(ev, cache.OwnerID(vi)) // grows the cell
			a.conflicts[int(ev)][int(vi)] += n - 1
		}
	}
}
