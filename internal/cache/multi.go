package cache

import (
	"fmt"
	"math/bits"
	"sync"
)

// MultiSim evaluates N cache configurations over one access stream in a
// single pass: callers decode an address once and every configuration
// updates its own tag/replacement state and statistics. Results are exactly
// those of N independent Cache instances fed the same accesses — the golden
// equivalence tests assert byte-identical statistics — but the per-config
// state lives in flat, id-indexed slices (tags, replacement stamps, owners
// and flag bytes each in their own contiguous array, indexed set×assoc+way)
// so the inner loop touches dense memory instead of chasing per-set slice
// headers.
//
// The kernel covers single-level configurations without prefetching or
// three-C classification (CanMulti reports eligibility); dinero.MultiSim
// layers multi-level and classified configs on top by falling back to full
// Cache instances behind the same record-sharing front end.
//
// A MultiSim is not safe for concurrent use. Release hands its arrays to
// the next NewMultiSim.
type MultiSim struct {
	per []multiCfg
}

// idleKernels holds the state of released simulators: each config's line
// arrays, hints, round-robin pointers and per-set counters. NewMultiSim
// takes the state released last and reuses every array large enough for
// its own config, so a process that builds simulator after simulator (a
// tracedstd job, a sweep side) allocates them once. A state is made only
// when the list is empty, so the list never holds more states than were
// live at once, and Release drops a state whose arrays take more than
// maxIdleKernelBytes.
var idleKernels struct {
	sync.Mutex
	list [][]multiCfg
}

// maxIdleKernelBytes caps the arrays one idle state keeps. A 32 KB
// direct-mapped config takes about 41 KB and a sweep side's configs under
// 100 KB, while a multi-megabyte cache's state is dropped.
const maxIdleKernelBytes = 4 << 20

// takeKernel returns the state released last, with n configs: ones beyond
// n are dropped, missing ones are zero. It returns nil when the list is
// empty.
func takeKernel(n int) []multiCfg {
	idleKernels.Lock()
	k := len(idleKernels.list)
	if k == 0 {
		idleKernels.Unlock()
		return nil
	}
	per := idleKernels.list[k-1]
	idleKernels.list[k-1] = nil
	idleKernels.list = idleKernels.list[:k-1]
	idleKernels.Unlock()
	if n > cap(per) {
		return append(per, make([]multiCfg, n-len(per))...)
	}
	clear(per[n:cap(per)])
	return per[:n]
}

// reuse returns s cleared at length n when it can hold n elements, and a
// new zeroed slice otherwise.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// kernelBytes is what the arrays of per take, by capacity.
func kernelBytes(per []multiCfg) int {
	n := 0
	for i := range per {
		p := &per[i]
		n += 8*(cap(p.tags)+cap(p.stamps)) + 4*(cap(p.owners)+cap(p.hint)+cap(p.rr)) +
			cap(p.flags) + 16*cap(p.stats.PerSet)
	}
	return n
}

// line-state flag bits.
const (
	mValid uint8 = 1 << iota
	mDirty
)

// multiCfg is one configuration's flattened cache state.
type multiCfg struct {
	cfg      Config
	setMask  uint64
	setBits  uint
	blkShift uint
	assoc    int
	clock    uint64
	rng      uint64

	// Flat line state, indexed set*assoc+way. stamps carries the
	// replacement policy's recency value: last use for LRU, fill time for
	// FIFO; round-robin and random ignore it.
	tags   []uint64
	stamps []uint64
	owners []OwnerID
	flags  []uint8

	// rr is the per-set round-robin pointer (ReplRoundRobin only).
	rr []int32
	// hint is the per-set most-recently-hit way, a search-order shortcut:
	// valid tags are unique within a set, so checking the hinted way first
	// finds the same line the full scan would.
	hint []int32

	stats Stats
}

// MultiVisit observes one simulated block access of one configuration:
// which set it landed in, whether it hit, and the owner of the line it
// evicted (NoOwner when nothing attributable was evicted). dinero's
// multi-config simulator uses it to attribute per-variable and
// per-function statistics without materializing Outcome slices.
type MultiVisit func(cfg, set int, hit bool, evictedOwner OwnerID)

// CanMulti reports whether cfg is eligible for the single-pass kernel:
// a valid single-level geometry without sequential prefetch or three-C
// classification (those paths need the full Cache machinery).
func CanMulti(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Prefetch != PrefetchNone {
		return fmt.Errorf("cache: multi-config kernel does not support prefetching (config %q)", cfg.Name)
	}
	if cfg.ClassifyMisses {
		return fmt.Errorf("cache: multi-config kernel does not support miss classification (config %q)", cfg.Name)
	}
	return nil
}

// NewMultiSim builds a single-pass simulator that simulates every set of
// every configuration in cfgs. sampleSets is a retired set-sampling
// factor: 0 and 1 (every set) are accepted, any other value is an error.
func NewMultiSim(cfgs []Config, sampleSets int) (*MultiSim, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("cache: NewMultiSim needs at least one config")
	}
	if sampleSets != 0 && sampleSets != 1 {
		return nil, fmt.Errorf("cache: set-sampling factor %d: set sampling was removed; pass 0", sampleSets)
	}
	for _, cfg := range cfgs {
		if err := CanMulti(cfg); err != nil {
			return nil, err
		}
	}
	m := &MultiSim{per: takeKernel(len(cfgs))}
	if m.per == nil {
		m.per = make([]multiCfg, len(cfgs))
	}
	for i, cfg := range cfgs {
		p := &m.per[i]
		nsets := cfg.Sets()
		assoc := cfg.Assoc
		if assoc == 0 {
			assoc = int(cfg.Size / cfg.BlockSize)
		}
		setMask := uint64(nsets - 1)
		rr := p.rr[:0]
		if cfg.Repl == ReplRoundRobin {
			rr = reuse(p.rr, nsets)
		}
		*p = multiCfg{
			cfg:      cfg,
			setMask:  setMask,
			setBits:  uint(bits.OnesCount64(setMask)),
			blkShift: uint(bits.TrailingZeros64(uint64(cfg.BlockSize))),
			assoc:    assoc,
			rng:      cfg.Seed*2862933555777941757 + 3037000493,
			tags:     reuse(p.tags, nsets*assoc),
			stamps:   reuse(p.stamps, nsets*assoc),
			owners:   reuse(p.owners, nsets*assoc),
			flags:    reuse(p.flags, nsets*assoc),
			rr:       rr,
			hint:     reuse(p.hint, nsets),
			stats:    Stats{PerSet: reuse(p.stats.PerSet, nsets)},
		}
	}
	return m, nil
}

// Release hands the simulator's arrays to the next NewMultiSim. The
// simulator must not be used afterwards, nor anything read from it that
// shares its arrays: Stats(i).PerSet does. A released simulator panics in
// Access, Flush and the per-config accessors; a second Release does
// nothing.
func (m *MultiSim) Release() {
	per := m.per
	if per == nil {
		return
	}
	m.per = nil
	if kernelBytes(per) > maxIdleKernelBytes {
		return
	}
	idleKernels.Lock()
	idleKernels.list = append(idleKernels.list, per)
	idleKernels.Unlock()
}

// Flush invalidates every line of every configuration, leaving statistics
// in place — the multi-config analogue of Cache.Flush. Like Cache.Flush it
// keeps the clock and random stream running, so a flushed simulator makes
// the same decisions as a cold one for every stamp-comparison policy (LRU,
// FIFO, round-robin); ReplRandom's stream position survives the flush,
// matching Cache.
func (m *MultiSim) Flush() {
	m.live()
	for ci := range m.per {
		p := &m.per[ci]
		clear(p.flags)
		clear(p.hint)
		if p.rr != nil {
			clear(p.rr)
		}
	}
}

// live panics when m was released: its arrays may be another run's.
func (m *MultiSim) live() {
	if m.per == nil {
		panic("cache: use of a released MultiSim")
	}
}

// NumConfigs returns how many configurations the simulator evaluates.
func (m *MultiSim) NumConfigs() int { return len(m.per) }

// Config returns configuration i.
func (m *MultiSim) Config(i int) Config { return m.per[i].cfg }

// Stats returns a snapshot of configuration i's statistics.
func (m *MultiSim) Stats(i int) Stats { return m.per[i].stats }

// MergeStats folds another run's raw statistics for configuration i into
// this simulator's (exact cell-wise addition, per-set counts included) —
// the reduce step of sharded multi-config simulation. The live stats are
// mutated in place; other is only read.
func (m *MultiSim) MergeStats(i int, other Stats) {
	m.per[i].stats.Merge(other)
}

// Access performs one possibly block-spanning access against every
// configuration. visit, when non-nil, is called once per block per
// configuration.
func (m *MultiSim) Access(kind Kind, addr uint64, size int32, owner OwnerID, visit MultiVisit) {
	m.live()
	if size <= 0 {
		size = 1
	}
	end := addr + uint64(size) - 1
	for ci := range m.per {
		p := &m.per[ci]
		if p.assoc == 1 && visit == nil {
			p.accessDirectRun(kind, addr, end, owner)
			continue
		}
		first := addr >> p.blkShift
		last := end >> p.blkShift
		for b := first; b <= last; b++ {
			si := b & p.setMask
			hit, ev := p.accessBlock(kind, b, si, owner)
			if visit != nil {
				visit(ci, int(si), hit, ev)
			}
		}
	}
}

// accessDirectRun is the direct-mapped specialization of the block loop
// for callers that do not observe outcomes: the lookup, statistics and
// fill are inlined over locally bound slices whose masked indexing lets
// the compiler drop bounds checks. Decisions and counters are identical
// to accessBlock with assoc == 1 — the equivalence tests cover both
// paths.
func (p *multiCfg) accessDirectRun(kind Kind, addr, end uint64, owner OwnerID) {
	tags := p.tags
	n := len(tags)
	if n == 0 {
		return
	}
	stamps := p.stamps[:n]
	owners := p.owners[:n]
	flags := p.flags[:n]
	perSet := p.stats.PerSet[:n]
	wb := p.cfg.Write == WriteBack
	writeAround := kind == Write && p.cfg.Alloc == NoWriteAllocate
	setDirty := kind == Write && wb
	first := addr >> p.blkShift
	last := end >> p.blkShift
	for b := first; b <= last; b++ {
		si := int(b) & (n - 1)
		p.clock++
		tag := b >> p.setBits
		if tags[si] == tag && flags[si]&mValid != 0 { // hit
			if setDirty {
				flags[si] |= mDirty
			}
			if kind == Read {
				p.stats.Reads++
				p.stats.ReadHits++
			} else {
				p.stats.Writes++
				p.stats.WriteHits++
			}
			perSet[si].Hits++
			continue
		}
		if kind == Read {
			p.stats.Reads++
			p.stats.ReadMisses++
		} else {
			p.stats.Writes++
			p.stats.WriteMisses++
		}
		perSet[si].Misses++
		if writeAround {
			continue
		}
		if f := flags[si]; f&mValid != 0 {
			p.stats.Evictions++
			if f&mDirty != 0 {
				p.stats.Writebacks++
			}
		}
		tags[si] = tag
		stamps[si] = p.clock
		owners[si] = owner
		fl := mValid
		if setDirty {
			fl |= mDirty
		}
		flags[si] = fl
	}
}

// accessBlock mirrors Cache.accessBlock for the supported envelope
// (single level, no prefetch, no classification): same clock, same
// replacement decisions, same statistics.
func (p *multiCfg) accessBlock(kind Kind, block, si uint64, owner OwnerID) (hit bool, evictedOwner OwnerID) {
	p.clock++
	tag := block >> p.setBits
	base := int(si) * p.assoc

	w := -1
	if p.assoc == 1 {
		if p.tags[base] == tag && p.flags[base]&mValid != 0 {
			w = 0
		}
	} else {
		if h := int(p.hint[si]); h < p.assoc {
			if i := base + h; p.tags[i] == tag && p.flags[i]&mValid != 0 {
				w = h
			}
		}
		if w < 0 {
			for j := 0; j < p.assoc; j++ {
				if i := base + j; p.tags[i] == tag && p.flags[i]&mValid != 0 {
					w = j
					break
				}
			}
		}
	}

	if w >= 0 { // hit
		i := base + w
		if p.assoc > 1 {
			p.hint[si] = int32(w)
		}
		if p.cfg.Repl == ReplLRU {
			p.stamps[i] = p.clock
		}
		if kind == Write && p.cfg.Write == WriteBack {
			p.flags[i] |= mDirty
		}
		p.record(kind, si, true)
		return true, NoOwner
	}

	// Miss.
	p.record(kind, si, false)
	if kind == Write && p.cfg.Alloc == NoWriteAllocate {
		// Write-around: no fill (and no next level to forward to).
		return false, NoOwner
	}

	if p.assoc == 1 {
		w = 0
	} else {
		w = p.victim(base, si)
	}
	i := base + w
	if p.flags[i]&mValid != 0 {
		evictedOwner = p.owners[i]
		p.stats.Evictions++
		if p.flags[i]&mDirty != 0 {
			p.stats.Writebacks++
		}
	}
	p.tags[i] = tag
	p.stamps[i] = p.clock
	p.owners[i] = owner
	fl := mValid
	if kind == Write && p.cfg.Write == WriteBack {
		fl |= mDirty
	}
	p.flags[i] = fl
	if p.assoc > 1 {
		p.hint[si] = int32(w)
	}
	return false, evictedOwner
}

// victim replicates Cache.pickVictim on the flat layout: an invalid way
// always wins, then the configured policy decides.
func (p *multiCfg) victim(base int, si uint64) int {
	for w := 0; w < p.assoc; w++ {
		if p.flags[base+w]&mValid == 0 {
			return w
		}
	}
	switch p.cfg.Repl {
	case ReplLRU, ReplFIFO:
		best, bestStamp := 0, p.stamps[base]
		for w := 1; w < p.assoc; w++ {
			if s := p.stamps[base+w]; s < bestStamp {
				best, bestStamp = w, s
			}
		}
		return best
	case ReplRandom:
		// xorshift64*, same stream as Cache.
		p.rng ^= p.rng >> 12
		p.rng ^= p.rng << 25
		p.rng ^= p.rng >> 27
		return int((p.rng * 2685821657736338717) % uint64(p.assoc))
	case ReplRoundRobin:
		w := p.rr[si]
		p.rr[si] = (w + 1) % int32(p.assoc)
		return int(w)
	}
	return 0
}

// record updates the demand counters, inlining Cache.record's non-classify
// half.
func (p *multiCfg) record(kind Kind, si uint64, hit bool) {
	ps := &p.stats.PerSet[si]
	if kind == Read {
		p.stats.Reads++
		if hit {
			p.stats.ReadHits++
			ps.Hits++
		} else {
			p.stats.ReadMisses++
			ps.Misses++
		}
	} else {
		p.stats.Writes++
		if hit {
			p.stats.WriteHits++
			ps.Hits++
		} else {
			p.stats.WriteMisses++
			ps.Misses++
		}
	}
}
