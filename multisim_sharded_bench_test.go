// Benchmarks for the sharded multi-configuration engine and the
// simulation result cache. BenchmarkShardedMultiSim runs the identical
// full-attribution multi-config workload at 1/2/4/8 shards inside each
// iteration, so every shard count sees the same scheduler and GC phase;
// each count's wall time comes out as its own metric and CI holds the
// 4-shard speedup with tools/benchguard (skipped on single-CPU hosts,
// where no speedup is possible). Run with:
//
//	go test . -run xxx -bench ShardedMultiSim -benchtime 10x
//	go test . -run xxx -bench SimCacheHitVsMiss -benchtime 20x
package tracedst_test

import (
	"fmt"
	"testing"
	"time"

	"tracedst/internal/cache"
	"tracedst/internal/dinero"
	"tracedst/internal/simcache"
	"tracedst/internal/telemetry"
	"tracedst/internal/trace"
)

// BenchmarkShardedMultiSim: the 1/2/4/8-shard scaling curve of
// full-attribution MultiSimSharded over the indexed matmul trace, every
// golden config at once. shards1_ns/op is the single-goroutine baseline;
// CI requires shards4_ns/op to be at least 1.8× faster on multi-core
// runners.
func BenchmarkShardedMultiSim(b *testing.B) {
	f := loadCodec(b)
	data := encodeIndexedTrace(b, f.recs, 0)
	tr, err := trace.NewIndexedBytes(data)
	if err != nil {
		b.Fatal(err)
	}
	counts := []int{1, 2, 4, 8}
	ns := make([]time.Duration, len(counts))
	b.SetBytes(int64(len(data)) * int64(len(counts)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ci, shards := range counts {
			t0 := time.Now()
			res, err := dinero.MultiSimSharded(tr, dinero.MultiOptions{Configs: goldenConfigs}, shards, trace.DecodeOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if res.Sim.Records() != int64(len(f.recs)) {
				b.Fatalf("%d shards simulated %d records, want %d", shards, res.Sim.Records(), len(f.recs))
			}
			ns[ci] += time.Since(t0)
		}
	}
	b.StopTimer()
	for ci, shards := range counts {
		b.ReportMetric(float64(ns[ci])/float64(b.N), fmt.Sprintf("shards%d_ns/op", shards))
	}
	b.ReportMetric(float64(len(f.recs))*float64(len(counts))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkSimCacheHitVsMiss prices the result cache: the miss path is a
// full multi-config simulation plus the store, the hit path is one
// content-hash plus one lookup returning the finished report.
func BenchmarkSimCacheHitVsMiss(b *testing.B) {
	f := loadCodec(b)
	sc, err := simcache.Open(b.TempDir(), telemetry.NewRegistry())
	if err != nil {
		b.Fatal(err)
	}
	cfg := goldenConfigs[2]
	mkKey := func(engine int) simcache.Key {
		return simcache.Key{
			Trace:  simcache.HashRecords(f.recs),
			Config: simcache.ConfigSig(cfg),
			Engine: engine,
		}
	}
	// Warm one entry for the hit path; the report stays the oracle.
	warm, err := dinero.NewMulti(dinero.MultiOptions{Configs: []cache.Config{cfg}})
	if err != nil {
		b.Fatal(err)
	}
	warm.Process(f.recs)
	want := warm.Report(0)
	if err := sc.PutResult(mkKey(simcache.EngineVersion), simcache.Entry{Records: warm.Records(), Report: want}); err != nil {
		b.Fatal(err)
	}
	var missNS, hitNS time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Miss: hash, lookup (empty — each iteration uses a never-stored
		// engine version), simulate, render, store.
		t0 := time.Now()
		key := mkKey(simcache.EngineVersion + 1 + i)
		if _, ok, err := sc.Result(key); err != nil || ok {
			b.Fatalf("cold lookup: ok=%v err=%v", ok, err)
		}
		ms, err := dinero.NewMulti(dinero.MultiOptions{Configs: []cache.Config{cfg}})
		if err != nil {
			b.Fatal(err)
		}
		ms.Process(f.recs)
		rep := ms.Report(0)
		if err := sc.PutResult(key, simcache.Entry{Records: ms.Records(), Report: rep}); err != nil {
			b.Fatal(err)
		}
		missNS += time.Since(t0)

		// Hit: hash and lookup only.
		t0 = time.Now()
		e, ok, err := sc.Result(mkKey(simcache.EngineVersion))
		if err != nil || !ok {
			b.Fatalf("warm lookup: ok=%v err=%v", ok, err)
		}
		hitNS += time.Since(t0)
		if e.Report != want || rep != want {
			b.Fatal("cached report diverges")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(missNS)/float64(b.N), "miss_simulate_ns/op")
	b.ReportMetric(float64(hitNS)/float64(b.N), "hit_ns/op")
}
