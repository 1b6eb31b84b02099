package cache

import (
	"reflect"
	"strings"
	"testing"
)

// multiTrafficCase is one synthetic access for the equivalence tests.
type multiTrafficCase struct {
	kind  Kind
	addr  uint64
	size  int32
	owner OwnerID
}

// multiTraffic generates a deterministic mixed workload: strided sweeps,
// hot-set reuse, block-spanning accesses and writes, with rotating owners
// so eviction attribution is exercised.
func multiTraffic(n int) []multiTrafficCase {
	out := make([]multiTrafficCase, 0, n)
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		return rng * 2685821657736338717
	}
	for i := 0; i < n; i++ {
		r := next()
		kind := Read
		if r%3 == 0 {
			kind = Write
		}
		var addr uint64
		switch i % 4 {
		case 0: // sequential sweep
			addr = 0x10000 + uint64(i)*8
		case 1: // hot working set
			addr = 0x40000 + (r%64)*32
		case 2: // conflict-prone large stride
			addr = 0x80000 + (r%16)*4096
		default: // scattered
			addr = 0x100000 + r%65536
		}
		size := int32(4)
		if r%7 == 0 {
			size = 48 // spans blocks
		}
		out = append(out, multiTrafficCase{kind, addr, size, OwnerID(1 + r%5)})
	}
	return out
}

// multiEquivConfigs spans the geometry and policy space the kernel
// supports: direct-mapped, set-associative LRU/FIFO/random/round-robin,
// fully associative, write-through and no-write-allocate.
func multiEquivConfigs() []Config {
	return []Config{
		{Size: 1024, BlockSize: 32, Assoc: 1},
		{Size: 4096, BlockSize: 32, Assoc: 2, Repl: ReplLRU},
		{Size: 4096, BlockSize: 64, Assoc: 4, Repl: ReplFIFO},
		{Size: 2048, BlockSize: 32, Assoc: 4, Repl: ReplRandom, Seed: 42},
		{Size: 8192, BlockSize: 32, Assoc: 64, Repl: ReplRoundRobin},
		{Size: 1024, BlockSize: 32, Assoc: 0}, // fully associative
		{Size: 4096, BlockSize: 32, Assoc: 2, Write: WriteThrough},
		{Size: 4096, BlockSize: 32, Assoc: 2, Alloc: NoWriteAllocate},
		{Size: 2048, BlockSize: 128, Assoc: 2, Repl: ReplLRU, Write: WriteThrough, Alloc: NoWriteAllocate},
	}
}

// TestMultiSimMatchesCache drives identical traffic through N independent
// Cache instances and one MultiSim and requires identical statistics —
// counter for counter, set for set.
func TestMultiSimMatchesCache(t *testing.T) {
	cfgs := multiEquivConfigs()
	refs := make([]*Cache, len(cfgs))
	for i, cfg := range cfgs {
		c, err := New(cfg, nil)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		refs[i] = c
	}
	ms, err := NewMultiSim(cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}

	var buf []Outcome
	for _, tc := range multiTraffic(20000) {
		for _, c := range refs {
			buf = c.Access(tc.kind, tc.addr, tc.size, tc.owner, buf[:0])
		}
		ms.Access(tc.kind, tc.addr, tc.size, tc.owner, nil)
	}
	for i := range cfgs {
		want, got := refs[i].Stats(), ms.Stats(i)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("config %d (%+v): stats diverge\n cache:    %+v\n multisim: %+v",
				i, cfgs[i], statsNoPerSet(want), statsNoPerSet(got))
			continue
		}
	}
}

// TestMultiSimVisitOutcomes checks the visit callback against the Outcome
// stream of a reference Cache: per-block set, hit/miss, and evicted owner
// must agree.
func TestMultiSimVisitOutcomes(t *testing.T) {
	cfg := Config{Size: 2048, BlockSize: 32, Assoc: 2, Repl: ReplLRU}
	ref, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := NewMultiSim([]Config{cfg}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf []Outcome
	for n, tc := range multiTraffic(5000) {
		buf = ref.Access(tc.kind, tc.addr, tc.size, tc.owner, buf[:0])
		i := 0
		ms.Access(tc.kind, tc.addr, tc.size, tc.owner, func(ci, set int, hit bool, ev OwnerID) {
			if i >= len(buf) {
				t.Fatalf("access %d: more visits than outcomes", n)
			}
			o := buf[i]
			wantEv := OwnerID(NoOwner)
			if o.Evicted {
				wantEv = o.EvictedOwner
			}
			if ci != 0 || set != o.Set || hit != o.Hit || ev != wantEv {
				t.Fatalf("access %d block %d: visit (set %d hit %v ev %d) != outcome (set %d hit %v ev %d)",
					n, i, set, hit, ev, o.Set, o.Hit, wantEv)
			}
			i++
		})
		if i != len(buf) {
			t.Fatalf("access %d: %d visits, %d outcomes", n, i, len(buf))
		}
	}
}

// TestNewMultiSimRejects pins the kernel's envelope: any set-sampling
// factor but 0 or 1 and unsupported features fail construction.
func TestNewMultiSimRejects(t *testing.T) {
	good := Config{Size: 1024, BlockSize: 32, Assoc: 1}
	if _, err := NewMultiSim(nil, 0); err == nil {
		t.Error("no configs: want error")
	}
	for _, k := range []int{-1, 3, 8} {
		if _, err := NewMultiSim([]Config{good}, k); err == nil || !strings.Contains(err.Error(), "set sampling was removed") {
			t.Errorf("set-sampling factor %d: err = %v, want set sampling was removed", k, err)
		}
	}
	if _, err := NewMultiSim([]Config{{Size: 1000, BlockSize: 32, Assoc: 1}}, 0); err == nil {
		t.Error("invalid geometry: want error")
	}
	if _, err := NewMultiSim([]Config{{Size: 1024, BlockSize: 32, Assoc: 1, Prefetch: PrefetchMiss}}, 0); err == nil {
		t.Error("prefetch config: want error")
	}
	if _, err := NewMultiSim([]Config{{Size: 1024, BlockSize: 32, Assoc: 1, ClassifyMisses: true}}, 0); err == nil {
		t.Error("classify config: want error")
	}
	for _, k := range []int{0, 1} {
		if _, err := NewMultiSim([]Config{good}, k); err != nil {
			t.Errorf("factor %d (every set): %v", k, err)
		}
	}
}

// statsNoPerSet strips the per-set slice for readable failure output.
func statsNoPerSet(s Stats) Stats {
	s.PerSet = nil
	return s
}
