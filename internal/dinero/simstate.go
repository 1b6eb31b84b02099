package dinero

import (
	"sync"

	"tracedst/internal/cache"
	"tracedst/internal/telemetry"
)

// simState is the memory a MultiSim's attribution counts in beyond its
// run: the 64-set pages of its per-variable series. NewMulti takes an idle
// state and Release gives it back holding every page the run used,
// cleared, so a process that simulates trace after trace (a tracedstd
// job, a sweep side) reuses the pages of the runs before it. The kernel's
// arrays go back alongside, to cache.NewMultiSim's own idle list. A
// MultiSim that is never released keeps its state until the collector
// takes it.
type simState struct {
	pages [][]cache.SetStats // pages[:free] are idle and zero, each perSetPage long
	free  int
}

// idleSims holds the states no MultiSim runs on. A state is made only when
// the list is empty, so the list never holds more states than were live at
// once, and putSimState drops a state holding more than maxIdlePages.
var idleSims struct {
	sync.Mutex
	list []*simState
}

// maxIdlePages caps the pages one idle state keeps: 4,096 pages are
// 4 MiB, and a tracedstd job over a matmul trace uses about 15.
const maxIdlePages = 4096

// getSimState takes an idle state, or makes one.
func getSimState() *simState {
	idleSims.Lock()
	if n := len(idleSims.list); n > 0 {
		st := idleSims.list[n-1]
		idleSims.list[n-1] = nil
		idleSims.list = idleSims.list[:n-1]
		idleSims.Unlock()
		return st
	}
	idleSims.Unlock()
	// multisim.states against multisim.runs is the reuse rate.
	telemetry.Default().Counter("multisim.states").Inc()
	return &simState{}
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

// reclaim clears every page of a's series and makes it idle in st; the
// series keep their totals and whatever PerSet they materialized, but
// count in no page.
func (st *simState) reclaim(a *attrib) {
	for _, vs := range a.varsByID {
		if vs == nil {
			continue
		}
		for _, pg := range vs.pages {
			if pg != nil {
				clear(pg)
				st.pages = append(st.pages[:st.free], pg)
				st.free++
			}
		}
		vs.pages, vs.st = nil, nil
	}
}
