package cache

import (
	"fmt"
)

// Kind is the access kind the simulator distinguishes.
type Kind int

// Access kinds.
const (
	Read Kind = iota
	Write
)

// MissClass is the three-C classification of a miss.
type MissClass int

// Miss classes (valid when Config.ClassifyMisses is set).
const (
	NotMiss MissClass = iota
	Compulsory
	Capacity
	Conflict
)

// String returns the class name.
func (m MissClass) String() string {
	switch m {
	case NotMiss:
		return "hit"
	case Compulsory:
		return "compulsory"
	case Capacity:
		return "capacity"
	case Conflict:
		return "conflict"
	}
	return fmt.Sprintf("MissClass(%d)", int(m))
}

// OwnerID labels the program variable that filled a line, for eviction
// attribution. The cache never interprets it beyond equality; callers that
// track variables by name intern them (dinero.MultiSim keeps a symbol
// table of its own) and pass the resulting integer. NoOwner (zero) means
// "unknown".
type OwnerID int32

// NoOwner is the OwnerID of an unattributed access.
const NoOwner OwnerID = 0

// Outcome describes what one block-granular access did.
type Outcome struct {
	Hit  bool
	Set  int
	Way  int
	Miss MissClass
	// Evicted reports a valid line was replaced; EvictedOwner is the id of
	// the variable that had filled it.
	Evicted      bool
	EvictedOwner OwnerID
	EvictedDirty bool
}

type line struct {
	valid   bool
	tag     uint64
	dirty   bool
	lastUse uint64
	filled  uint64
	owner   OwnerID
}

type set struct {
	lines  []line
	rrNext int // round-robin pointer
}

// Cache is one simulated cache level.
type Cache struct {
	cfg      Config
	sets     []set
	setMask  uint64
	setBits  uint
	blkShift uint
	clock    uint64
	rng      uint64
	stats    Stats
	next     *Cache

	// seen tracks ever-referenced blocks for compulsory classification.
	seen map[uint64]bool
	// shadow is an infinite-capacity LRU directory limited to Size/Block
	// entries for capacity-vs-conflict classification.
	shadow *shadowLRU

	// scratch receives the outcomes of fill/writeback traffic bubbled to
	// the next level, so propagation never allocates. A Cache is not safe
	// for concurrent use, so reusing it across calls is fine.
	scratch []Outcome
}

// New builds a cache level. next, if non-nil, receives miss fills and
// write-through/writeback traffic.
func New(cfg Config, next *Cache) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Sets()
	assoc := cfg.Assoc
	if assoc == 0 {
		assoc = int(cfg.Size / cfg.BlockSize)
	}
	c := &Cache{
		cfg:      cfg,
		sets:     make([]set, nsets),
		setMask:  uint64(nsets - 1),
		setBits:  uint(popcount(uint64(nsets - 1))),
		blkShift: uint(trailingZeros(uint64(cfg.BlockSize))),
		rng:      cfg.Seed*2862933555777941757 + 3037000493,
		next:     next,
	}
	for i := range c.sets {
		c.sets[i].lines = make([]line, assoc)
	}
	c.stats.PerSet = make([]SetStats, nsets)
	if cfg.ClassifyMisses {
		c.seen = map[uint64]bool{}
		c.shadow = newShadowLRU(int(cfg.Size / cfg.BlockSize))
	}
	return c, nil
}

func trailingZeros(v uint64) int {
	n := 0
	for v&1 == 0 {
		v >>= 1
		n++
	}
	return n
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Next returns the next level, if any.
func (c *Cache) Next() *Cache { return c.next }

// Stats returns a snapshot of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// SetOf returns the set index addr maps to.
func (c *Cache) SetOf(addr uint64) int {
	return int((addr >> c.blkShift) & c.setMask)
}

// Access performs one possibly block-spanning access. owner labels the
// program variable for eviction attribution (NoOwner when unknown). One
// Outcome per block touched is appended to out, which is returned; passing
// a reused buffer (out[:0]) keeps the hot path allocation-free, passing nil
// allocates as before.
func (c *Cache) Access(kind Kind, addr uint64, size int32, owner OwnerID, out []Outcome) []Outcome {
	if size <= 0 {
		size = 1
	}
	first := addr >> c.blkShift
	last := (addr + uint64(size) - 1) >> c.blkShift
	missed := false
	for b := first; b <= last; b++ {
		o := c.accessBlock(kind, b, owner)
		missed = missed || !o.Hit
		out = append(out, o)
	}
	if c.cfg.Prefetch == PrefetchAlways || (c.cfg.Prefetch == PrefetchMiss && missed) {
		c.prefetchBlock(last+1, owner)
	}
	return out
}

// bubble sends one block of fill/writeback traffic to the next level,
// reusing the scratch buffer so propagation does not allocate. Validate
// bounds the block size to an int32.
func (c *Cache) bubble(kind Kind, addr uint64, owner OwnerID) {
	c.scratch = c.next.Access(kind, addr, int32(c.cfg.BlockSize), owner, c.scratch[:0])
}

// prefetchBlock brings the next sequential block in without touching the
// demand statistics (DineroIV-style sequential prefetch).
func (c *Cache) prefetchBlock(block uint64, owner OwnerID) {
	c.stats.Prefetches++
	si := int(block & c.setMask)
	tag := block >> c.setBits
	st := &c.sets[si]
	for w := range st.lines {
		if st.lines[w].valid && st.lines[w].tag == tag {
			return // already resident; recency deliberately untouched
		}
	}
	c.stats.PrefetchFills++
	if c.next != nil {
		c.bubble(Read, block<<c.blkShift, owner)
	}
	c.clock++
	w := c.pickVictim(st)
	ln := &st.lines[w]
	if ln.valid {
		c.stats.Evictions++
		if ln.dirty {
			c.stats.Writebacks++
			if c.next != nil {
				victimBlock := ln.tag<<c.setBits | uint64(si)
				c.bubble(Write, victimBlock<<c.blkShift, ln.owner)
			}
		}
	}
	*ln = line{valid: true, tag: tag, lastUse: c.clock, filled: c.clock, owner: owner}
	c.classifyTouch(block)
}

// accessBlock performs one block-granular access.
func (c *Cache) accessBlock(kind Kind, block uint64, owner OwnerID) Outcome {
	c.clock++
	si := int(block & c.setMask)
	tag := block >> c.setBits
	st := &c.sets[si]

	var res Outcome
	res.Set = si

	// Lookup.
	for w := range st.lines {
		ln := &st.lines[w]
		if ln.valid && ln.tag == tag {
			res.Hit = true
			res.Way = w
			ln.lastUse = c.clock
			if kind == Write {
				if c.cfg.Write == WriteBack {
					ln.dirty = true
				} else if c.next != nil {
					c.bubble(Write, block<<c.blkShift, owner)
				}
			}
			c.record(kind, si, true, NotMiss)
			c.classifyTouch(block)
			return res
		}
	}

	// Miss.
	res.Miss = c.classifyMiss(block)
	c.record(kind, si, false, res.Miss)

	if kind == Write && c.cfg.Alloc == NoWriteAllocate {
		// Write-around: no fill.
		if c.next != nil {
			c.bubble(Write, block<<c.blkShift, owner)
		}
		c.classifyTouch(block)
		return res
	}

	// Fetch from the next level.
	if c.next != nil {
		c.bubble(Read, block<<c.blkShift, owner)
	}

	// Victim selection.
	w := c.pickVictim(st)
	ln := &st.lines[w]
	if ln.valid {
		res.Evicted = true
		res.EvictedOwner = ln.owner
		res.EvictedDirty = ln.dirty
		c.stats.Evictions++
		if ln.dirty {
			c.stats.Writebacks++
			if c.next != nil {
				victimBlock := ln.tag<<c.setBits | uint64(si)
				c.bubble(Write, victimBlock<<c.blkShift, ln.owner)
			}
		}
	}
	*ln = line{
		valid:   true,
		tag:     tag,
		lastUse: c.clock,
		filled:  c.clock,
		owner:   owner,
	}
	if kind == Write {
		if c.cfg.Write == WriteBack {
			ln.dirty = true
		} else if c.next != nil {
			c.bubble(Write, block<<c.blkShift, owner)
		}
	}
	res.Way = w
	c.classifyTouch(block)
	return res
}

func popcount(v uint64) int {
	n := 0
	for v != 0 {
		n += int(v & 1)
		v >>= 1
	}
	return n
}

// pickVictim chooses the way to replace in st.
func (c *Cache) pickVictim(st *set) int {
	// An invalid way always wins.
	for w := range st.lines {
		if !st.lines[w].valid {
			return w
		}
	}
	switch c.cfg.Repl {
	case ReplLRU:
		best, bestUse := 0, st.lines[0].lastUse
		for w := 1; w < len(st.lines); w++ {
			if st.lines[w].lastUse < bestUse {
				best, bestUse = w, st.lines[w].lastUse
			}
		}
		return best
	case ReplFIFO:
		best, bestFill := 0, st.lines[0].filled
		for w := 1; w < len(st.lines); w++ {
			if st.lines[w].filled < bestFill {
				best, bestFill = w, st.lines[w].filled
			}
		}
		return best
	case ReplRandom:
		// xorshift64*
		c.rng ^= c.rng >> 12
		c.rng ^= c.rng << 25
		c.rng ^= c.rng >> 27
		return int((c.rng * 2685821657736338717) % uint64(len(st.lines)))
	case ReplRoundRobin:
		w := st.rrNext
		st.rrNext = (st.rrNext + 1) % len(st.lines)
		return w
	}
	return 0
}

func (c *Cache) record(kind Kind, set int, hit bool, miss MissClass) {
	ps := &c.stats.PerSet[set]
	if kind == Read {
		c.stats.Reads++
		if hit {
			c.stats.ReadHits++
		} else {
			c.stats.ReadMisses++
		}
	} else {
		c.stats.Writes++
		if hit {
			c.stats.WriteHits++
		} else {
			c.stats.WriteMisses++
		}
	}
	if hit {
		ps.Hits++
	} else {
		ps.Misses++
		switch miss {
		case Compulsory:
			c.stats.Compulsory++
		case Capacity:
			c.stats.Capacity++
		case Conflict:
			c.stats.Conflict++
		}
	}
}

// classifyMiss implements the standard three-C method: first touch is
// compulsory; otherwise a miss that would also miss in a fully-associative
// LRU cache of the same capacity is a capacity miss, else a conflict miss.
func (c *Cache) classifyMiss(block uint64) MissClass {
	if c.seen == nil {
		return NotMiss
	}
	if !c.seen[block] {
		return Compulsory
	}
	if c.shadow.contains(block) {
		return Conflict
	}
	return Capacity
}

func (c *Cache) classifyTouch(block uint64) {
	if c.seen == nil {
		return
	}
	c.seen[block] = true
	c.shadow.touch(block)
}

// MergeStats folds another run's counters into this level's statistics
// (see Stats.Merge) — the aggregation hook for sharded simulation.
func (c *Cache) MergeStats(other Stats) { c.stats.Merge(other) }

// Flush invalidates every line, leaving statistics in place (cold-cache
// restarts between benchmark iterations).
func (c *Cache) Flush() {
	for i := range c.sets {
		for w := range c.sets[i].lines {
			c.sets[i].lines[w] = line{}
		}
		c.sets[i].rrNext = 0
	}
	if c.seen != nil {
		c.seen = map[uint64]bool{}
		c.shadow = newShadowLRU(int(c.cfg.Size / c.cfg.BlockSize))
	}
}

// ResidentBlocks returns how many of the given blocks are currently cached
// (used by the set-pinning residency analysis).
func (c *Cache) ResidentBlocks(blocks []uint64) int {
	n := 0
	for _, b := range blocks {
		si := int(b & c.setMask)
		tag := b >> c.setBits
		for _, ln := range c.sets[si].lines {
			if ln.valid && ln.tag == tag {
				n++
				break
			}
		}
	}
	return n
}

// shadowLRU is a bounded fully-associative LRU directory.
type shadowLRU struct {
	cap   int
	order map[uint64]uint64 // block -> last use
	tick  uint64
}

func newShadowLRU(capacity int) *shadowLRU {
	return &shadowLRU{cap: capacity, order: map[uint64]uint64{}}
}

func (s *shadowLRU) touch(block uint64) {
	s.tick++
	if _, ok := s.order[block]; !ok && len(s.order) >= s.cap {
		// Evict the least recently used entry.
		var lruB uint64
		var lruT uint64 = ^uint64(0)
		for b, t := range s.order {
			if t < lruT {
				lruB, lruT = b, t
			}
		}
		delete(s.order, lruB)
	}
	s.order[block] = s.tick
}

func (s *shadowLRU) contains(block uint64) bool {
	_, ok := s.order[block]
	return ok
}
