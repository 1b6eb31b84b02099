package experiments

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"tracedst/internal/cache"
	"tracedst/internal/dinero"
	"tracedst/internal/telemetry"
	"tracedst/internal/trace"
)

// sweepSides loads every (spec, side) of the standard sweeps with its
// record slice and per-size configs — the unit both engines consume.
type engineSide struct {
	id   string
	recs []trace.Record
	cfgs []cache.Config
}

func loadEngineSides(tb testing.TB) []engineSide {
	var out []engineSide
	for _, sp := range sweepSpecs() {
		for sd, side := range []*memoTrace{sp.orig, sp.xform} {
			recs, err := side.get()
			if err != nil {
				tb.Fatal(err)
			}
			cfgs := make([]cache.Config, len(sp.sizes))
			for i, size := range sp.sizes {
				cfgs[i] = sp.config(size)
			}
			out = append(out, engineSide{sp.id + "/" + sweepSides[sd], recs, cfgs})
		}
	}
	return out
}

// TestSweepEnginesEquivalent pins the rewire's core guarantee: the
// single-pass engine returns, for every spec, side and size of the
// standard sweeps, exactly the miss count the per-config engine computes.
func TestSweepEnginesEquivalent(t *testing.T) {
	ctx := context.Background()
	for _, sd := range loadEngineSides(t) {
		multi, err := sweepMisses(ctx, sd.recs, sd.cfgs, dinero.Sampling{})
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range sd.cfgs {
			per, err := missesAt(ctx, sd.recs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if per != multi[i] {
				t.Errorf("%s size %d: single-pass misses %d != per-config misses %d",
					sd.id, cfg.Size, multi[i], per)
			}
		}
	}
}

// TestSweepSidesReuseState: a sweep side releases its simulator, serial
// or sharded, so once each engine has run, the standard sweeps' sides
// build on the states of the sides before them and make none, with the
// same miss counts as before.
func TestSweepSidesReuseState(t *testing.T) {
	ctx := context.Background()
	sides := loadEngineSides(t)
	sweep := func() [][]int64 {
		var out [][]int64
		for _, sd := range sides {
			serial, err := sweepMisses(ctx, sd.recs, sd.cfgs, dinero.Sampling{})
			if err != nil {
				t.Fatal(err)
			}
			sharded, err := sweepMissesSharded(ctx, sd.recs, sd.cfgs, 2)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, serial, sharded)
		}
		return out
	}
	want := sweep()
	states := telemetry.Default().Counter("multisim.states")
	before := states.Value()
	if got := sweep(); !reflect.DeepEqual(got, want) {
		t.Errorf("sweeps on recycled states: misses %v, want %v", got, want)
	}
	if made := states.Value() - before; made != 0 {
		t.Errorf("a second round of sweeps made %d simulator states, want 0", made)
	}
}

// TestFiguresReuseState: the serial figures release their simulators, so
// a run of every figure makes at most one simulator state — the first
// figure's, when no state is idle — and each later figure takes the state
// the one before it released. Figures that kept theirs made one each.
func TestFiguresReuseState(t *testing.T) {
	runs := telemetry.Default().Counter("multisim.runs")
	states := telemetry.Default().Counter("multisim.states")
	beforeRuns, before := runs.Value(), states.Value()
	if _, err := Figures(context.Background(), RunOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if ran := runs.Value() - beforeRuns; ran < 2 {
		t.Fatalf("the figures ran %d simulations, want several", ran)
	}
	if made := states.Value() - before; made > 1 {
		t.Errorf("the figures made %d simulator states, want at most 1", made)
	}
}

// TestSweepsSamplingCheckpointSeparation: sampled runs must not replay
// exact stored entries (or vice versa) — their keys differ — and the
// sampled estimates must land within the documented interval-sampling
// bound of the exact counts.
func TestSweepsSamplingCheckpointSeparation(t *testing.T) {
	dir := t.TempDir()
	store, _ := openStore(t, dir)
	exact, err := Sweeps(context.Background(), RunOptions{Workers: 1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	store2, reg2 := openStore(t, dir)
	sampled, err := Sweeps(context.Background(), RunOptions{
		Workers: 1, Store: store2, Sampling: dinero.Sampling{Interval: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if hits, puts := reg2.Counter("simcache.hits").Value(), reg2.Counter("simcache.puts").Value(); hits != 0 || puts == 0 {
		t.Fatalf("sampled run: %d hits, %d puts — it reused exact entries", hits, puts)
	}
	// Both sides of every point with at least 100 exact misses (the
	// golden suite's minMissesForBound) must read within the documented
	// 30% interval-sampling bound: scaling applied exactly once, on the
	// side it belongs to.
	const minMisses, bound = 100, 0.30
	checked, worst := 0, 0.0
	for si, ex := range exact {
		for pi, p := range ex.Points {
			est := sampled[si].Points[pi]
			for _, side := range []struct {
				name       string
				exact, got int64
			}{
				{"orig", p.MissesOrig, est.MissesOrig},
				{"transformed", p.MissesXform, est.MissesXform},
			} {
				if side.exact < minMisses {
					continue
				}
				checked++
				relErr := math.Abs(float64(side.got-side.exact)) / float64(side.exact)
				worst = max(worst, relErr)
				if relErr > bound {
					t.Errorf("%s size %d %s: sampled misses %d vs exact %d (rel. error %.3f > %.2f)",
						ex.ID, p.CacheBytes, side.name, side.got, side.exact, relErr, bound)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no sweep point reached the assertion threshold")
	}
	t.Logf("%d sweep sides checked, worst miss-count rel. error %.4f (bound %.2f)", checked, worst, bound)
}

// BenchmarkSweepEngines interleaves the three sweep engines over the full
// standard sweep — per-config (one Simulator per size), single-pass
// multi-config, and interval-sampled multi-config (every 4th window) — in
// one benchmark so scheduler noise hits all three equally. benchguard
// gates perconfig_ns/op / multisim_ns/op ≥ 3 in CI.
func BenchmarkSweepEngines(b *testing.B) {
	sides := loadEngineSides(b)
	ctx := context.Background()
	sampled := dinero.Sampling{Interval: 4}
	var tPer, tMulti, tSampled time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		for _, sd := range sides {
			for _, cfg := range sd.cfgs {
				if _, err := missesAt(ctx, sd.recs, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
		tPer += time.Since(start)

		start = time.Now()
		for _, sd := range sides {
			if _, err := sweepMisses(ctx, sd.recs, sd.cfgs, dinero.Sampling{}); err != nil {
				b.Fatal(err)
			}
		}
		tMulti += time.Since(start)

		start = time.Now()
		for _, sd := range sides {
			if _, err := sweepMisses(ctx, sd.recs, sd.cfgs, sampled); err != nil {
				b.Fatal(err)
			}
		}
		tSampled += time.Since(start)
	}
	b.ReportMetric(float64(tPer.Nanoseconds())/float64(b.N), "perconfig_ns/op")
	b.ReportMetric(float64(tMulti.Nanoseconds())/float64(b.N), "multisim_ns/op")
	b.ReportMetric(float64(tSampled.Nanoseconds())/float64(b.N), "sampled_ns/op")
	if tMulti > 0 {
		b.ReportMetric(tPer.Seconds()/tMulti.Seconds(), "speedup")
	}
}
