package experiments

import (
	"context"
	"sync"
	"testing"

	"tracedst/internal/simcache"
	"tracedst/internal/telemetry"
	"tracedst/internal/trace"
)

// openStore opens a store handle on dir with a registry of its own, as a
// separate process would.
func openStore(t *testing.T, dir string) (*simcache.Store, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	sc, err := simcache.Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	return sc, reg
}

// TestSweepSimCacheSecondRunAllHits is the cache-determinism property:
// the same sweep against the same cache directory runs once cold (every
// lookup a miss, every result stored) and once entirely from the cache
// (zero misses), with bit-identical results.
func TestSweepSimCacheSecondRunAllHits(t *testing.T) {
	dir := t.TempDir()

	sc1, reg1 := openStore(t, dir)
	first, err := Sweeps(context.Background(), RunOptions{Workers: 2, Store: sc1})
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprintSweeps(first)
	lookups := reg1.Counter("simcache.lookups").Value()
	if lookups == 0 {
		t.Fatal("cold run never consulted the cache")
	}
	if hits := reg1.Counter("simcache.hits").Value(); hits != 0 {
		t.Errorf("cold run: %d hits, want 0", hits)
	}
	if m, p := reg1.Counter("simcache.misses").Value(), reg1.Counter("simcache.puts").Value(); m != lookups || p != m {
		t.Errorf("cold run: lookups %d misses %d puts %d, want all equal", lookups, m, p)
	}

	// A fresh handle over the same directory, as a separate process.
	sc2, reg2 := openStore(t, dir)
	second, err := Sweeps(context.Background(), RunOptions{Workers: 4, Store: sc2})
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprintSweeps(second); got != want {
		t.Errorf("cached results differ from the cold run:\n--- cold ---\n%s\n--- cached ---\n%s", want, got)
	}
	if m := reg2.Counter("simcache.misses").Value(); m != 0 {
		t.Errorf("warm run: %d misses, want 0", m)
	}
	if h := reg2.Counter("simcache.hits").Value(); h != lookups {
		t.Errorf("warm run: %d hits, want %d (one per cold-run lookup)", h, lookups)
	}
	if p := reg2.Counter("simcache.puts").Value(); p != 0 {
		t.Errorf("warm run stored %d entries, want 0", p)
	}
}

// TestSweepSimCacheShardTierIsSeparate: sharded sweeps equal a
// flush-at-boundary serial run, not an unflushed one, so their results
// live under a distinct key tier and never answer exact serial lookups
// (or vice versa).
func TestSweepSimCacheShardTierIsSeparate(t *testing.T) {
	dir := t.TempDir()
	sc1, _ := openStore(t, dir)
	if _, err := Sweeps(context.Background(), RunOptions{Workers: 2, Store: sc1}); err != nil {
		t.Fatal(err)
	}
	sc2, reg2 := openStore(t, dir)
	if _, err := Sweeps(context.Background(), RunOptions{Workers: 2, Shards: 2, Store: sc2}); err != nil {
		t.Fatal(err)
	}
	if h := reg2.Counter("simcache.hits").Value(); h != 0 {
		t.Errorf("sharded run hit %d serial-tier entries", h)
	}
	if m := reg2.Counter("simcache.misses").Value(); m == 0 {
		t.Error("sharded run never consulted the cache")
	}
}

// TestSweepsHashEachTraceOnce: store keys carry each trace's content hash,
// and a process computes it at most once per memoized trace however many
// runs share the trace, and only when a store asks for it.
func TestSweepsHashEachTraceOnce(t *testing.T) {
	var mu sync.Mutex
	calls := map[*trace.Record]int{} // keyed by the trace's backing array
	prev := hashRecords
	hashRecords = func(recs []trace.Record) string {
		mu.Lock()
		calls[&recs[0]]++
		mu.Unlock()
		return prev(recs)
	}
	defer func() { hashRecords = prev }()

	if _, err := Sweeps(context.Background(), RunOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 0 {
		t.Fatalf("a run without a store hashed %d traces", len(calls))
	}
	dir := t.TempDir()
	for run := 0; run < 2; run++ {
		sc, _ := openStore(t, dir)
		if _, err := Sweeps(context.Background(), RunOptions{Workers: 2, Store: sc}); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range calls {
		if n > 1 {
			t.Errorf("a trace was hashed %d times across two runs, want at most once", n)
		}
	}
	if want := 2 * len(sweepSpecs()); len(calls) > want {
		t.Errorf("%d traces hashed, want at most %d", len(calls), want)
	}
}
