// Package profile derives memory-profiling summaries from a Gleipnir trace
// — the "advanced memory analysis" role the paper assigns to Gleipnir's
// output beyond cache simulation: per-function and per-variable access
// mixes, byte volumes, cache-line footprints, working-set sizes and
// function-transition counts.
package profile

import (
	"fmt"
	"sort"
	"strings"

	"tracedst/internal/trace"
)

// FootprintBlock is the line size used for footprint accounting.
const FootprintBlock = 32

// FuncProfile summarises one function's memory behaviour.
type FuncProfile struct {
	Name     string
	Accesses int64
	Reads    int64
	Writes   int64
	Modifies int64
	// Bytes is the total bytes moved (modify counted once).
	Bytes int64
	// Footprint is the number of distinct 32-byte blocks touched.
	Footprint int

	blocks map[uint64]bool
}

// VarProfile summarises one variable's usage.
type VarProfile struct {
	Name     string
	Accesses int64
	Bytes    int64
	// Footprint is the number of distinct 32-byte blocks touched.
	Footprint int
	// Funcs lists the functions that touched the variable.
	Funcs []string

	blocks map[uint64]bool
	funcs  map[string]bool
}

// Profile is the full trace summary.
type Profile struct {
	Records int64
	// Funcs and Vars are keyed summaries; use the sorted accessors for
	// reports.
	Funcs map[string]*FuncProfile
	Vars  map[string]*VarProfile
	// Transitions counts consecutive-record function changes a→b — an
	// approximation of the call/return structure visible in the trace.
	Transitions map[[2]string]int64
	// WorkingSet is the total distinct 32-byte blocks in the trace.
	WorkingSet int

	blocks map[uint64]bool
}

// Profiler accumulates a Profile incrementally, one record at a time, so
// streaming pipelines can profile traces larger than RAM (live state is the
// footprint maps, not the trace). Feed records with Add, then call Finish.
type Profiler struct {
	p        *Profile
	prevFunc string
	done     bool
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{p: &Profile{
		Funcs:       map[string]*FuncProfile{},
		Vars:        map[string]*VarProfile{},
		Transitions: map[[2]string]int64{},
		blocks:      map[uint64]bool{},
	}}
}

// Add folds one record into the profile.
func (pr *Profiler) Add(r *trace.Record) {
	p := pr.p
	p.Records++

	fn := r.Site.Func()
	fp := p.Funcs[fn]
	if fp == nil {
		fp = &FuncProfile{Name: fn, blocks: map[uint64]bool{}}
		p.Funcs[fn] = fp
	}
	fp.Accesses++
	switch r.Op {
	case trace.Load:
		fp.Reads++
	case trace.Store:
		fp.Writes++
	case trace.Modify:
		fp.Modifies++
	}
	fp.Bytes += int64(r.Size)
	for b := r.Addr / FootprintBlock; b <= (r.End()-1)/FootprintBlock; b++ {
		fp.blocks[b] = true
		p.blocks[b] = true
	}

	if r.HasSym {
		root := r.Site.Var().Root
		vp := p.Vars[root]
		if vp == nil {
			vp = &VarProfile{Name: root, blocks: map[uint64]bool{}, funcs: map[string]bool{}}
			p.Vars[root] = vp
		}
		vp.Accesses++
		vp.Bytes += int64(r.Size)
		vp.funcs[fn] = true
		for b := r.Addr / FootprintBlock; b <= (r.End()-1)/FootprintBlock; b++ {
			vp.blocks[b] = true
		}
	}

	if pr.prevFunc != "" && pr.prevFunc != fn {
		p.Transitions[[2]string{pr.prevFunc, fn}]++
	}
	pr.prevFunc = fn
}

// AddBatch folds a record batch into the profile.
func (pr *Profiler) AddBatch(recs []trace.Record) {
	for i := range recs {
		pr.Add(&recs[i])
	}
}

// Finish computes the derived fields and returns the profile. The profiler
// must not be used after Finish.
func (pr *Profiler) Finish() *Profile {
	if pr.done {
		return pr.p
	}
	pr.done = true
	p := pr.p
	for _, fp := range p.Funcs {
		fp.Footprint = len(fp.blocks)
	}
	for _, vp := range p.Vars {
		vp.Footprint = len(vp.blocks)
		for fn := range vp.funcs {
			vp.Funcs = append(vp.Funcs, fn)
		}
		sort.Strings(vp.Funcs)
	}
	p.WorkingSet = len(p.blocks)
	return p
}

// New builds a profile from a materialized record slice.
func New(recs []trace.Record) *Profile {
	pr := NewProfiler()
	pr.AddBatch(recs)
	return pr.Finish()
}

// TopFuncs returns function profiles by descending access count.
func (p *Profile) TopFuncs() []*FuncProfile {
	out := make([]*FuncProfile, 0, len(p.Funcs))
	for _, fp := range p.Funcs {
		out = append(out, fp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Accesses != out[j].Accesses {
			return out[i].Accesses > out[j].Accesses
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// TopVars returns variable profiles by descending access count.
func (p *Profile) TopVars() []*VarProfile {
	out := make([]*VarProfile, 0, len(p.Vars))
	for _, vp := range p.Vars {
		out = append(out, vp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Accesses != out[j].Accesses {
			return out[i].Accesses > out[j].Accesses
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// TopTransitions returns function transitions by descending count.
func (p *Profile) TopTransitions() []struct {
	From, To string
	Count    int64
} {
	type tr = struct {
		From, To string
		Count    int64
	}
	out := make([]tr, 0, len(p.Transitions))
	for k, n := range p.Transitions {
		out = append(out, tr{From: k[0], To: k[1], Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Report renders the profile as text.
func (p *Profile) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "memory profile: %d records, working set %d blocks (%d bytes)\n",
		p.Records, p.WorkingSet, p.WorkingSet*FootprintBlock)

	fmt.Fprintf(&b, "\nfunctions\n %-20s %9s %8s %8s %8s %10s %9s\n",
		"name", "accesses", "reads", "writes", "modifies", "bytes", "footprint")
	for _, fp := range p.TopFuncs() {
		fmt.Fprintf(&b, " %-20s %9d %8d %8d %8d %10d %9d\n",
			fp.Name, fp.Accesses, fp.Reads, fp.Writes, fp.Modifies, fp.Bytes, fp.Footprint)
	}

	fmt.Fprintf(&b, "\nvariables\n %-24s %9s %10s %9s  %s\n",
		"name", "accesses", "bytes", "footprint", "used by")
	for _, vp := range p.TopVars() {
		fmt.Fprintf(&b, " %-24s %9d %10d %9d  %s\n",
			vp.Name, vp.Accesses, vp.Bytes, vp.Footprint, strings.Join(vp.Funcs, ","))
	}

	if ts := p.TopTransitions(); len(ts) > 0 {
		fmt.Fprintf(&b, "\nfunction transitions\n")
		for _, tr := range ts {
			fmt.Fprintf(&b, " %-20s -> %-20s %8d\n", tr.From, tr.To, tr.Count)
		}
	}
	return b.String()
}
