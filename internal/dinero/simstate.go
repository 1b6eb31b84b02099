package dinero

import (
	"sync"

	"tracedst/internal/cache"
	"tracedst/internal/telemetry"
)

// simState is the memory a MultiSim's attribution counts in beyond its
// run: the 64-set pages of its per-variable series, the series and
// function totals themselves, and the site memo. NewMulti takes an idle
// state and Release gives it back holding every page, series and total
// the run used, reset, and the memo cleared, so a process that simulates
// trace after trace (a tracedstd job, a sweep side) reuses the memory of
// the runs before it. The kernel's arrays go back alongside, to
// cache.NewMultiSim's own idle list. A MultiSim that is never released
// keeps its state until the collector takes it.
type simState struct {
	pages [][]cache.SetStats // pages[:free] are idle and zero, each perSetPage long
	free  int
	// series and funcs are idle, reset, and hold no page.
	series []*VarSeries
	funcs  []*FuncStats
	// memo is nil until a run that attributes takes the state; the
	// release of that run clears it, since its ids were the run's own.
	memo *siteMemo
}

// idleSims holds the states no MultiSim runs on. A state is made only when
// the list is empty, so the list never holds more states than were live at
// once, and putSimState drops a state holding more than maxIdlePages.
var idleSims struct {
	sync.Mutex
	list []*simState
}

// maxIdlePages caps the pages one idle state keeps, and the series and
// function totals: 4,096 pages are 4 MiB, and a tracedstd job over a
// matmul trace uses about 15.
const maxIdlePages = 4096

// pop takes the last element off an idle list, or returns nil.
func pop[T any](list *[]*T) *T {
	n := len(*list)
	if n == 0 {
		return nil
	}
	x := (*list)[n-1]
	(*list)[n-1] = nil
	*list = (*list)[:n-1]
	return x
}

// getSimState takes an idle state, or makes one.
func getSimState() *simState {
	idleSims.Lock()
	st := pop(&idleSims.list)
	idleSims.Unlock()
	if st == nil {
		// multisim.states against multisim.runs is the reuse rate.
		telemetry.Default().Counter("multisim.states").Inc()
		st = &simState{}
	}
	return st
}

// putSimState puts st back on the idle list, unless it holds more than
// maxIdlePages pages.
func putSimState(st *simState) {
	if st.free > maxIdlePages {
		return
	}
	idleSims.Lock()
	idleSims.list = append(idleSims.list, st)
	idleSims.Unlock()
}

// page returns a zeroed page: an idle one of st's, or a new one. It is
// small enough that VarSeries.touch, which calls it, inlines into the
// per-access loops.
func (st *simState) page() []cache.SetStats {
	if st.free == 0 {
		return make([]cache.SetStats, perSetPage)
	}
	st.free--
	return st.pages[st.free]
}

// varSeries returns a series of nsets sets named name: an idle one of
// st's, or a new one.
func (st *simState) varSeries(name string, nsets int) *VarSeries {
	npages := (nsets + perSetPage - 1) / perSetPage
	vs := pop(&st.series)
	if vs == nil {
		vs = new(VarSeries)
	}
	pages := vs.pages
	if cap(pages) < npages {
		pages = make([][]cache.SetStats, npages)
	}
	*vs = VarSeries{Name: name, nsets: nsets, pages: pages[:npages], st: st}
	return vs
}

// funcStats returns zeroed totals named name: idle ones of st's, or new
// ones.
func (st *simState) funcStats(name string) *FuncStats {
	fs := pop(&st.funcs)
	if fs == nil {
		fs = new(FuncStats)
	}
	fs.Name = name
	return fs
}

// reclaim makes every series of at, its pages and every function total
// idle in st, cleared, and clears the memo: an idle state holds no name
// or site of the run. A series keeps its page table and drops its PerSet,
// which a caller may still read.
func (st *simState) reclaim(at []attrib) {
	for i := range at {
		for _, vs := range at[i].varsByID {
			if vs == nil {
				continue
			}
			for j, pg := range vs.pages {
				if pg != nil {
					clear(pg)
					st.pages = append(st.pages[:st.free], pg)
					st.free++
					vs.pages[j] = nil
				}
			}
			if len(st.series) < maxIdlePages {
				*vs = VarSeries{pages: vs.pages[:0]}
				st.series = append(st.series, vs)
			}
		}
		for _, fs := range at[i].funcsByID {
			if fs != nil && len(st.funcs) < maxIdlePages {
				*fs = FuncStats{}
				st.funcs = append(st.funcs, fs)
			}
		}
	}
	if st.memo != nil {
		clear(st.memo[:])
	}
}
