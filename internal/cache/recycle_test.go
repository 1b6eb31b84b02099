package cache

import (
	"reflect"
	"testing"
)

// dropIdleKernels empties the idle list, so the next NewMultiSim makes its
// state.
func dropIdleKernels() {
	idleKernels.Lock()
	clear(idleKernels.list)
	idleKernels.list = idleKernels.list[:0]
	idleKernels.Unlock()
}

// idleKernelCount is how many states the idle list holds.
func idleKernelCount() int {
	idleKernels.Lock()
	defer idleKernels.Unlock()
	return len(idleKernels.list)
}

// runKernel builds a simulator for cfgs, drives traffic through it and
// returns it with its statistics and every visit it made.
func runKernel(t *testing.T, cfgs []Config, traffic []multiTrafficCase) (*MultiSim, []Stats, []int) {
	t.Helper()
	ms, err := NewMultiSim(cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	var visits []int
	for i, tc := range traffic {
		// Every other access reports its outcomes, so both the observed
		// path and the direct-mapped fast path run on recycled arrays.
		if i%2 == 0 {
			ms.Access(tc.kind, tc.addr, tc.size, tc.owner, nil)
			continue
		}
		ms.Access(tc.kind, tc.addr, tc.size, tc.owner, func(cfg, set int, hit bool, ev OwnerID) {
			h := 0
			if hit {
				h = 1
			}
			visits = append(visits, cfg, set, h, int(ev))
		})
	}
	stats := make([]Stats, len(cfgs))
	for i := range cfgs {
		stats[i] = ms.Stats(i)
		stats[i].PerSet = append([]SetStats(nil), stats[i].PerSet...)
	}
	return ms, stats, visits
}

// TestRecycledKernelIsNew: a simulator built on the state of one released
// after other traffic over other configs — a list that grows, shrinks and
// changes geometry, block size and policy — makes the same decisions and
// counts as one built on a new state: every replacement policy (random
// reseeded), write-back and write-through, direct-mapped and associative.
func TestRecycledKernelIsNew(t *testing.T) {
	all := multiEquivConfigs()
	lists := [][]Config{
		all[:2],
		all,
		all[3:5],
		{{Size: 65536, BlockSize: 64, Assoc: 1}},
		{all[4], all[3], all[0]},
		{{Size: 512, BlockSize: 16, Assoc: 2, Repl: ReplRoundRobin}, all[8], all[1], all[2], all[6]},
	}
	dirty := multiTraffic(3000)
	traffic := multiTraffic(12000)[6000:]
	for k, cfgs := range lists {
		dropIdleKernels()
		fresh, want, wantVisits := runKernel(t, cfgs, traffic)
		fresh.Release()

		// Leave the state of a run over the previous list on the idle
		// list, then build on it.
		dropIdleKernels()
		prev, _, _ := runKernel(t, lists[(k+len(lists)-1)%len(lists)], dirty)
		prev.Release()
		recycled, got, gotVisits := runKernel(t, cfgs, traffic)
		if !reflect.DeepEqual(got, want) {
			for i := range cfgs {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("list %d config %d (%+v): recycled stats %+v, new %+v", k, i, cfgs[i], statsNoPerSet(got[i]), statsNoPerSet(want[i]))
				}
			}
		}
		if !reflect.DeepEqual(gotVisits, wantVisits) {
			t.Errorf("list %d: recycled simulator's visits differ from a new one's", k)
		}
		recycled.Release()
	}
}

// TestIdleKernelsBounded: the idle list holds no more states than were
// live at once, however often they are taken and released, and drops a
// state over maxIdleKernelBytes.
func TestIdleKernelsBounded(t *testing.T) {
	dropIdleKernels()
	cfgs := multiEquivConfigs()[:2]
	build := func(n int) []*MultiSim {
		sims := make([]*MultiSim, n)
		for i := range sims {
			ms, err := NewMultiSim(cfgs, 0)
			if err != nil {
				t.Fatal(err)
			}
			sims[i] = ms
		}
		return sims
	}
	release := func(sims []*MultiSim) {
		for _, ms := range sims {
			ms.Release()
		}
	}
	release(build(3))
	for i := 0; i < 20; i++ {
		release(build(1 + i%3))
		if n := idleKernelCount(); n != 3 {
			t.Fatalf("round %d: %d idle states, want 3 (the most live at once)", i, n)
		}
	}
	release(build(5))
	if n := idleKernelCount(); n != 5 {
		t.Fatalf("%d idle states after five were live at once, want 5", n)
	}

	// 4 MiB direct-mapped with 32-byte blocks: 131,072 sets at 41 bytes
	// each is over the cap.
	big, err := NewMultiSim([]Config{{Size: 4 << 20, BlockSize: 32, Assoc: 1}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b := kernelBytes(big.per); b <= maxIdleKernelBytes {
		t.Fatalf("big state takes %d bytes, not over the %d cap", b, maxIdleKernelBytes)
	}
	before := idleKernelCount()
	big.Release()
	if n := idleKernelCount(); n != before {
		t.Errorf("a state over the cap was kept: %d idle states, want %d", n, before)
	}
}

// TestReleasedKernelPanics: a released simulator panics on use rather than
// reach arrays another simulator may own, and a second Release gives
// nothing back again.
func TestReleasedKernelPanics(t *testing.T) {
	dropIdleKernels()
	ms, err := NewMultiSim(multiEquivConfigs()[:2], 0)
	if err != nil {
		t.Fatal(err)
	}
	ms.Release()
	ms.Release()
	if n := idleKernelCount(); n != 1 {
		t.Errorf("two Releases left %d idle states, want 1", n)
	}
	for name, use := range map[string]func(){
		"Access":     func() { ms.Access(Read, 0x1000, 4, NoOwner, nil) },
		"Flush":      func() { ms.Flush() },
		"Stats":      func() { ms.Stats(0) },
		"MergeStats": func() { ms.MergeStats(0, Stats{}) },
		"Config":     func() { ms.Config(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released MultiSim did not panic", name)
				}
			}()
			use()
		}()
	}
}
