package cache

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, cfg Config, next *Cache) *Cache {
	t.Helper()
	c, err := New(cfg, next)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func small(assoc int, repl ReplPolicy) Config {
	return Config{Name: "t", Size: 256, BlockSize: 32, Assoc: assoc, Repl: repl}
}

func TestConfigGeometry(t *testing.T) {
	cfg := Paper32KDirect()
	if cfg.Sets() != 1024 {
		t.Errorf("32K direct sets = %d, want 1024", cfg.Sets())
	}
	ppc := PowerPC440()
	if ppc.Sets() != 16 {
		t.Errorf("PPC440 sets = %d, want 16", ppc.Sets())
	}
	full := Config{Size: 1024, BlockSize: 32, Assoc: 0}
	if full.Sets() != 1 {
		t.Errorf("fully associative sets = %d", full.Sets())
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Size: 0, BlockSize: 32, Assoc: 1},
		{Size: 1024, BlockSize: 0, Assoc: 1},
		{Size: 1024, BlockSize: 33, Assoc: 1},     // not power of 2
		{Size: 1000, BlockSize: 32, Assoc: 1},     // not divisible
		{Size: 1024, BlockSize: 32, Assoc: -1},    // negative ways
		{Size: 96 * 32, BlockSize: 32, Assoc: 32}, // 3 sets: not a power of 2
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated: %+v", i, cfg)
		}
	}
	if err := PowerPC440().Validate(); err != nil {
		t.Errorf("PPC440 invalid: %v", err)
	}
}

func TestDirectMappedHitMiss(t *testing.T) {
	c := mustNew(t, small(1, ReplLRU), nil) // 8 sets of 1 way
	r1 := c.Access(Read, 0x1000, 4, 1, nil)
	if len(r1) != 1 || r1[0].Hit {
		t.Fatalf("first access = %+v", r1)
	}
	r2 := c.Access(Read, 0x1004, 4, 1, nil) // same block
	if !r2[0].Hit {
		t.Error("same-block access missed")
	}
	// Same set (set 0), different tag → conflict eviction.
	r3 := c.Access(Read, 0x1000+256, 4, 2, nil)
	if r3[0].Hit || !r3[0].Evicted || r3[0].EvictedOwner != 1 {
		t.Errorf("conflicting access = %+v", r3[0])
	}
	st := c.Stats()
	if st.Reads != 3 || st.ReadHits != 1 || st.ReadMisses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSetIndexing(t *testing.T) {
	c := mustNew(t, small(1, ReplLRU), nil) // 8 sets, 32B blocks
	if c.SetOf(0) != 0 || c.SetOf(32) != 1 || c.SetOf(32*8) != 0 || c.SetOf(33) != 1 {
		t.Errorf("SetOf = %d %d %d %d", c.SetOf(0), c.SetOf(32), c.SetOf(32*8), c.SetOf(33))
	}
	out := c.Access(Read, 64, 4, NoOwner, nil)
	if out[0].Set != 2 {
		t.Errorf("outcome set = %d", out[0].Set)
	}
	if c.Stats().PerSet[2].Misses != 1 {
		t.Error("per-set miss not recorded")
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way, 4 sets. Blocks A, B, C all in set 0.
	c := mustNew(t, small(2, ReplLRU), nil)
	blockAddr := func(k int) uint64 { return uint64(k) * 32 * 4 } // stride one set-round
	c.Access(Read, blockAddr(0), 4, 1, nil)
	c.Access(Read, blockAddr(1), 4, 2, nil)
	c.Access(Read, blockAddr(0), 4, 1, nil) // A now MRU
	out := c.Access(Read, blockAddr(2), 4, 3, nil)
	if !out[0].Evicted || out[0].EvictedOwner != 2 {
		t.Errorf("LRU evicted %+v, want owner 2 (B)", out[0])
	}
	if hit := c.Access(Read, blockAddr(0), 4, 1, nil); !hit[0].Hit {
		t.Error("A should have survived")
	}
}

func TestFIFOReplacement(t *testing.T) {
	c := mustNew(t, small(2, ReplFIFO), nil)
	blockAddr := func(k int) uint64 { return uint64(k) * 32 * 4 }
	c.Access(Read, blockAddr(0), 4, 1, nil)
	c.Access(Read, blockAddr(1), 4, 2, nil)
	c.Access(Read, blockAddr(0), 4, 1, nil) // recency must NOT save A under FIFO
	out := c.Access(Read, blockAddr(2), 4, 3, nil)
	if !out[0].Evicted || out[0].EvictedOwner != 1 {
		t.Errorf("FIFO evicted %+v, want owner 1 (A)", out[0])
	}
}

func TestRoundRobinReplacement(t *testing.T) {
	c := mustNew(t, small(2, ReplRoundRobin), nil)
	blockAddr := func(k int) uint64 { return uint64(k) * 32 * 4 }
	c.Access(Read, blockAddr(0), 4, 1, nil)       // way 0
	c.Access(Read, blockAddr(1), 4, 2, nil)       // way 1
	o1 := c.Access(Read, blockAddr(2), 4, 3, nil) // rr pointer at 0 → evict A
	o2 := c.Access(Read, blockAddr(3), 4, 4, nil) // rr pointer at 1 → evict B
	o3 := c.Access(Read, blockAddr(4), 4, 5, nil) // wraps → evict C
	if o1[0].EvictedOwner != 1 || o2[0].EvictedOwner != 2 || o3[0].EvictedOwner != 3 {
		t.Errorf("RR evictions = %d %d %d", o1[0].EvictedOwner, o2[0].EvictedOwner, o3[0].EvictedOwner)
	}
}

func TestRandomReplacementDeterministic(t *testing.T) {
	run := func() []int {
		c := mustNew(t, Config{Size: 256, BlockSize: 32, Assoc: 2, Repl: ReplRandom, Seed: 42}, nil)
		var ways []int
		for k := 0; k < 8; k++ {
			out := c.Access(Read, uint64(k)*32*4, 4, NoOwner, nil)
			ways = append(ways, out[0].Way)
		}
		return ways
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("random replacement not deterministic at %d: %v vs %v", i, a, b)
		}
		if a[i] < 0 || a[i] > 1 {
			t.Fatalf("way out of range: %d", a[i])
		}
	}
}

func TestWriteBackEviction(t *testing.T) {
	l2 := mustNew(t, Config{Name: "l2", Size: 4096, BlockSize: 32, Assoc: 4}, nil)
	l1 := mustNew(t, small(1, ReplLRU), l2)
	l1.Access(Write, 0x0, 4, 1, nil) // miss, fill, dirty
	if l2.Stats().Reads != 1 {
		t.Errorf("L2 fill reads = %d", l2.Stats().Reads)
	}
	l1.Access(Read, 256, 4, 2, nil) // evicts dirty x → writeback to L2
	st := l1.Stats()
	if st.Writebacks != 1 || st.Evictions != 1 {
		t.Errorf("stats = %+v", st)
	}
	if l2.Stats().Writes != 1 {
		t.Errorf("L2 writes = %d, want 1 writeback", l2.Stats().Writes)
	}
}

func TestWriteThrough(t *testing.T) {
	l2 := mustNew(t, Config{Name: "l2", Size: 4096, BlockSize: 32, Assoc: 4}, nil)
	l1 := mustNew(t, Config{Size: 256, BlockSize: 32, Assoc: 1, Write: WriteThrough}, l2)
	l1.Access(Write, 0x0, 4, 1, nil) // miss: fill read + through write
	l1.Access(Write, 0x0, 4, 1, nil) // hit: through write
	if got := l2.Stats().Writes; got != 2 {
		t.Errorf("L2 writes = %d, want 2", got)
	}
	// No dirty lines → no writebacks ever.
	l1.Access(Read, 256, 4, 2, nil)
	if l1.Stats().Writebacks != 0 {
		t.Error("write-through produced a writeback")
	}
}

func TestNoWriteAllocate(t *testing.T) {
	c := mustNew(t, Config{Size: 256, BlockSize: 32, Assoc: 1, Alloc: NoWriteAllocate}, nil)
	c.Access(Write, 0x0, 4, 1, nil)
	// The block must not be resident.
	if out := c.Access(Read, 0x0, 4, 1, nil); out[0].Hit {
		t.Error("write miss filled the cache under no-write-allocate")
	}
}

func TestBlockSpanningAccess(t *testing.T) {
	c := mustNew(t, small(1, ReplLRU), nil)
	out := c.Access(Read, 30, 8, NoOwner, nil) // crosses the 32-byte boundary
	if len(out) != 2 {
		t.Fatalf("outcomes = %d, want 2", len(out))
	}
	if out[0].Set == out[1].Set {
		t.Errorf("spanning access hit one set twice: %+v", out)
	}
	if c.Stats().Reads != 2 {
		t.Errorf("reads = %d", c.Stats().Reads)
	}
}

func TestZeroSizeAccessTreatedAsOne(t *testing.T) {
	c := mustNew(t, small(1, ReplLRU), nil)
	if out := c.Access(Read, 0, 0, NoOwner, nil); len(out) != 1 {
		t.Errorf("outcomes = %+v", out)
	}
}

func TestThreeCClassification(t *testing.T) {
	cfg := small(1, ReplLRU) // 8 sets × 1 way = 8 blocks capacity
	cfg.ClassifyMisses = true
	c := mustNew(t, cfg, nil)

	// First touches: compulsory.
	out := c.Access(Read, 0, 4, NoOwner, nil)
	if out[0].Miss != Compulsory {
		t.Errorf("first touch = %v", out[0].Miss)
	}
	// Ping-pong two blocks in the same set while the cache is mostly empty:
	// conflict misses (a fully associative cache would hold both).
	c.Access(Read, 256, 4, NoOwner, nil)
	out = c.Access(Read, 0, 4, NoOwner, nil)
	if out[0].Miss != Conflict {
		t.Errorf("ping-pong miss = %v, want conflict", out[0].Miss)
	}
	st := c.Stats()
	if st.Compulsory == 0 || st.Conflict == 0 {
		t.Errorf("classes = %+v", st)
	}
}

func TestCapacityClassification(t *testing.T) {
	cfg := Config{Size: 256, BlockSize: 32, Assoc: 0, ClassifyMisses: true} // fully assoc, 8 blocks
	c := mustNew(t, cfg, nil)
	// Sweep 16 blocks twice: second sweep misses are capacity (FA cache of
	// the same size also misses).
	for round := 0; round < 2; round++ {
		for b := 0; b < 16; b++ {
			c.Access(Read, uint64(b)*32, 4, NoOwner, nil)
		}
	}
	st := c.Stats()
	if st.Capacity == 0 {
		t.Errorf("no capacity misses: %+v", st)
	}
	if st.Conflict != 0 {
		t.Errorf("conflict misses in fully associative cache: %+v", st)
	}
}

// TestSetPinningResidency reproduces the paper's §IV.A.3 arithmetic: on a
// PowerPC 440-style cache, 4096 contiguous bytes occupy 8 lines in each of
// 16 sets (fully resident), while pinning the same 4096 bytes to a single
// set leaves only 64 of 128 blocks resident — 50% residency.
func TestSetPinningResidency(t *testing.T) {
	// Contiguous.
	c := mustNew(t, PowerPC440(), nil)
	var blocks []uint64
	base := uint64(0x10000)
	for off := int64(0); off < 4096; off += 32 {
		c.Access(Write, base+uint64(off), 4, 1, nil)
		blocks = append(blocks, (base+uint64(off))>>5)
	}
	if got := c.ResidentBlocks(blocks); got != 128 {
		t.Errorf("contiguous residency = %d/128", got)
	}

	// Pinned: 128 blocks that all map to set 11.
	c2 := mustNew(t, PowerPC440(), nil)
	var pinned []uint64
	for k := 0; k < 128; k++ {
		block := uint64(k)*16 + 11 // block % 16 == 11
		addr := block << 5
		c2.Access(Write, addr, 4, 1, nil)
		pinned = append(pinned, block)
	}
	got := c2.ResidentBlocks(pinned)
	if got != 64 {
		t.Errorf("pinned residency = %d/128, want 64 (50%%)", got)
	}
	// All traffic in set 11.
	for i, ps := range c2.Stats().PerSet {
		if i == 11 {
			if ps.Misses == 0 {
				t.Error("no misses recorded in the pinned set")
			}
		} else if ps.Hits+ps.Misses != 0 {
			t.Errorf("traffic leaked to set %d: %+v", i, ps)
		}
	}
}

func TestFlush(t *testing.T) {
	c := mustNew(t, small(2, ReplLRU), nil)
	c.Access(Read, 0, 4, NoOwner, nil)
	c.Flush()
	if out := c.Access(Read, 0, 4, NoOwner, nil); out[0].Hit {
		t.Error("hit after flush")
	}
}

func TestStatsReport(t *testing.T) {
	c := mustNew(t, small(1, ReplLRU), nil)
	c.Access(Read, 0, 4, NoOwner, nil)
	c.Access(Write, 0, 4, NoOwner, nil)
	rep := c.Stats().Report("l1-data")
	for _, want := range []string{"l1-data", "Demand Fetches", "Demand Misses", "Miss Rate"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	if c.Stats().MissRatio() != 0.5 {
		t.Errorf("miss ratio = %v", c.Stats().MissRatio())
	}
	occ := c.Stats().OccupiedSets()
	if len(occ) != 1 || occ[0] != 0 {
		t.Errorf("occupied sets = %v", occ)
	}
}

func TestParseRepl(t *testing.T) {
	for s, want := range map[string]ReplPolicy{
		"lru": ReplLRU, "l": ReplLRU, "fifo": ReplFIFO, "f": ReplFIFO,
		"random": ReplRandom, "r": ReplRandom, "rr": ReplRoundRobin,
	} {
		got, err := ParseRepl(s)
		if err != nil || got != want {
			t.Errorf("ParseRepl(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseRepl("mru"); err == nil {
		t.Error("bad policy accepted")
	}
}

func TestParseWriteAlloc(t *testing.T) {
	for s, want := range map[string]WritePolicy{"wb": WriteBack, "wt": WriteThrough} {
		if got, err := ParseWrite(s); err != nil || got != want {
			t.Errorf("ParseWrite(%q) = %v, %v", s, got, err)
		}
	}
	for s, want := range map[string]AllocPolicy{"wa": WriteAllocate, "wn": NoWriteAllocate} {
		if got, err := ParseAlloc(s); err != nil || got != want {
			t.Errorf("ParseAlloc(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseWrite("xx"); err == nil || err.Error() != `bad write policy "xx"` {
		t.Errorf(`ParseWrite("xx") err = %v`, err)
	}
	if _, err := ParseAlloc("xx"); err == nil || err.Error() != `bad alloc policy "xx"` {
		t.Errorf(`ParseAlloc("xx") err = %v`, err)
	}
}

func TestPolicyStrings(t *testing.T) {
	if ReplLRU.String() != "LRU" || ReplRoundRobin.String() != "round-robin" {
		t.Error("ReplPolicy strings")
	}
	if WriteBack.String() != "write-back" || WriteThrough.String() != "write-through" {
		t.Error("WritePolicy strings")
	}
	if WriteAllocate.String() != "write-allocate" || NoWriteAllocate.String() != "no-write-allocate" {
		t.Error("AllocPolicy strings")
	}
	if Compulsory.String() != "compulsory" || NotMiss.String() != "hit" {
		t.Error("MissClass strings")
	}
}

// Property: hits + misses == accesses, and per-set tallies sum to the total.
func TestStatsInvariant(t *testing.T) {
	f := func(addrs []uint16, writes []bool) bool {
		c, err := New(small(2, ReplLRU), nil)
		if err != nil {
			return false
		}
		for i, a := range addrs {
			k := Read
			if i < len(writes) && writes[i] {
				k = Write
			}
			c.Access(k, uint64(a), 4, 1, nil)
		}
		st := c.Stats()
		if st.Hits()+st.Misses() != st.Accesses() {
			return false
		}
		var sh, sm int64
		for _, ps := range st.PerSet {
			sh += ps.Hits
			sm += ps.Misses
		}
		return sh == st.Hits() && sm == st.Misses()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: immediately repeating any access hits.
func TestTemporalLocalityProperty(t *testing.T) {
	f := func(addr uint32) bool {
		c, err := New(PowerPC440(), nil)
		if err != nil {
			return false
		}
		c.Access(Read, uint64(addr), 4, NoOwner, nil)
		out := c.Access(Read, uint64(addr), 4, NoOwner, nil)
		for _, o := range out {
			if !o.Hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Hierarchy invariants under random traffic: L2 read traffic equals L1
// fill count; write-through L1 never writes back; no-write-allocate never
// fills on writes.
func TestHierarchyInvariants(t *testing.T) {
	f := func(addrs []uint16, writes []bool) bool {
		l2cfg := Config{Name: "l2", Size: 4096, BlockSize: 32, Assoc: 4}
		l2, err := New(l2cfg, nil)
		if err != nil {
			return false
		}
		l1, err := New(Config{Size: 512, BlockSize: 32, Assoc: 2, Write: WriteThrough}, l2)
		if err != nil {
			return false
		}
		var fills int64
		var writeCount int64
		for i, a := range addrs {
			k := Read
			if i < len(writes) && writes[i] {
				k = Write
			}
			for _, o := range l1.Access(k, uint64(a), 4, NoOwner, nil) {
				if !o.Hit {
					fills++
				}
				if k == Write {
					writeCount++ // per block touched (spanning writes forward twice)
				}
			}
		}
		st1 := l1.Stats()
		st2 := l2.Stats()
		// Write-through: every write reaches L2; no writebacks anywhere.
		if st1.Writebacks != 0 {
			return false
		}
		if st2.Writes != writeCount {
			return false
		}
		// Every L1 miss fetched a block from L2.
		return st2.Reads == fills
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
