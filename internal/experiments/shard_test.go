package experiments

import (
	"context"
	"testing"

	"tracedst/internal/dinero"
)

// TestSweepShardedMatchesFlushSerial pins the sharded engine's guarantee:
// for every spec, side and size of the standard sweeps, the shard-merged
// miss count equals a serial single-pass run that flushes every
// configuration at the same record boundaries.
func TestSweepShardedMatchesFlushSerial(t *testing.T) {
	ctx := context.Background()
	for _, sd := range loadEngineSides(t) {
		for _, shards := range []int{2, 4} {
			got, err := sweepMissesSharded(ctx, sd.recs, sd.cfgs, shards)
			if err != nil {
				t.Fatal(err)
			}

			// Serial reference: one MultiSim, Flush at each shard boundary.
			ms, err := dinero.NewMulti(dinero.MultiOptions{Configs: sd.cfgs, StatsOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			eff := shards
			if eff > len(sd.recs) {
				eff = len(sd.recs)
			}
			for i := 0; i < eff; i++ {
				lo := len(sd.recs) * i / eff
				hi := len(sd.recs) * (i + 1) / eff
				if i > 0 {
					ms.Flush()
				}
				ms.Process(sd.recs[lo:hi])
			}
			for i, cfg := range sd.cfgs {
				want := ms.Stats(i).Misses()
				if got[i] != want {
					t.Errorf("%s size %d shards=%d: sharded misses %d != flush-serial misses %d",
						sd.id, cfg.Size, shards, got[i], want)
				}
			}
		}
	}
}

// TestSweepShardedDegenerate: one shard (or tiny inputs) falls back to the
// plain single-pass engine.
func TestSweepShardedDegenerate(t *testing.T) {
	ctx := context.Background()
	sd := loadEngineSides(t)[0]
	serial, err := sweepMisses(ctx, sd.recs, sd.cfgs, dinero.Sampling{})
	if err != nil {
		t.Fatal(err)
	}
	one, err := sweepMissesSharded(ctx, sd.recs, sd.cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if one[i] != serial[i] {
			t.Errorf("config %d: 1-shard misses %d != serial %d", i, one[i], serial[i])
		}
	}
}

// TestSweepsShardedCheckpointSeparation: sharded results equal a
// flush-at-boundary run, not a plain serial one — they must be stored
// under distinct keys and never replay unsharded entries.
func TestSweepsShardedCheckpointSeparation(t *testing.T) {
	dir := t.TempDir()
	store, _ := openStore(t, dir)
	if _, err := Sweeps(context.Background(), RunOptions{Workers: 1, Store: store}); err != nil {
		t.Fatal(err)
	}
	store2, reg2 := openStore(t, dir)
	if _, err := Sweeps(context.Background(), RunOptions{Workers: 1, Store: store2, Shards: 2}); err != nil {
		t.Fatal(err)
	}
	if hits, puts := reg2.Counter("simcache.hits").Value(), reg2.Counter("simcache.puts").Value(); hits != 0 || puts == 0 {
		t.Fatalf("sharded run: %d hits, %d puts — it reused unsharded entries", hits, puts)
	}
}

// TestSweepsShardsRejectSampling: sharding and sampling cannot combine —
// interval windows depend on global record position.
func TestSweepsShardsRejectSampling(t *testing.T) {
	_, err := Sweeps(context.Background(), RunOptions{
		Workers: 1, Shards: 2, Sampling: dinero.Sampling{Interval: 4},
	})
	if err == nil {
		t.Fatal("sharded sampled run accepted")
	}
}
