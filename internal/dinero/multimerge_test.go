package dinero

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"tracedst/internal/cache"
	"tracedst/internal/trace"
)

// TestMultiSimMergeFrom is the multi-config half of the sharded-merge
// property: two cold full-attribution MultiSims over a split trace,
// merged, must reproduce — to the byte — every config's report from one
// serial run with a Flush at the split, across kernel and fallback
// engines and every split position including the empty shards.
func TestMultiSimMergeFrom(t *testing.T) {
	cfgs := multiTestConfigs()
	recs := multiRecords(20000, 12)
	for _, statsOnly := range []bool{false, true} {
		for _, split := range []int{0, 1, len(recs) / 3, len(recs) / 2, len(recs)} {
			ref, err := NewMulti(MultiOptions{Configs: cfgs, StatsOnly: statsOnly})
			if err != nil {
				t.Fatal(err)
			}
			ref.Process(recs[:split])
			ref.Flush()
			ref.Process(recs[split:])

			a, _ := NewMulti(MultiOptions{Configs: cfgs, StatsOnly: statsOnly})
			b, _ := NewMulti(MultiOptions{Configs: cfgs, StatsOnly: statsOnly})
			a.Process(recs[:split])
			b.Process(recs[split:])
			if err := a.MergeFrom(b); err != nil {
				t.Fatal(err)
			}
			for i, cfg := range cfgs {
				if got, want := a.Report(i), ref.Report(i); got != want {
					t.Errorf("statsOnly=%v split %d config %d (%+v): merged report != flush-at-boundary serial report\n--- merged ---\n%s\n--- ref ---\n%s",
						statsOnly, split, i, cfg, got, want)
				}
				gs, ws := a.Stats(i), ref.Stats(i)
				if gs.Misses() != ws.Misses() || gs.Accesses() != ws.Accesses() {
					t.Errorf("statsOnly=%v split %d config %d: stats diverge (merged %d/%d, ref %d/%d)",
						statsOnly, split, i, gs.Misses(), gs.Accesses(), ws.Misses(), ws.Accesses())
				}
			}
			if a.Records() != ref.Records() || a.SimulatedRecords() != ref.SimulatedRecords() {
				t.Errorf("statsOnly=%v split %d: merged counters %d/%d != ref %d/%d",
					statsOnly, split, a.Records(), a.SimulatedRecords(), ref.Records(), ref.SimulatedRecords())
			}
		}
	}
}

// TestMultiSimMergeFromPrivateInterning pins the property that makes
// sharding possible at all: each shard interns symbols privately (first
// sight order differs per shard), and the merged attribution must still
// be byte-identical because attrib merges by symbol name.
func TestMultiSimMergeFromPrivateInterning(t *testing.T) {
	cfgs := []cache.Config{
		{Size: 2048, BlockSize: 32, Assoc: 2, Repl: cache.ReplLRU},
	}
	recs := multiRecords(10000, 16)
	// Reverse the second half so shard b meets the symbols in a different
	// order than shard a (and than the serial run).
	split := len(recs) / 2
	back := make([]trace.Record, len(recs)-split)
	copy(back, recs[split:])
	for i, j := 0, len(back)-1; i < j; i, j = i+1, j-1 {
		back[i], back[j] = back[j], back[i]
	}

	ref, err := NewMulti(MultiOptions{Configs: cfgs})
	if err != nil {
		t.Fatal(err)
	}
	ref.Process(recs[:split])
	ref.Flush()
	ref.Process(back)

	a, _ := NewMulti(MultiOptions{Configs: cfgs})
	b, _ := NewMulti(MultiOptions{Configs: cfgs})
	a.Process(recs[:split])
	b.Process(back)
	if err := a.MergeFrom(b); err != nil {
		t.Fatal(err)
	}
	if got, want := a.Report(0), ref.Report(0); got != want {
		t.Errorf("private intern tables: merged report != serial report\n--- merged ---\n%s\n--- ref ---\n%s", got, want)
	}
}

// TestMultiSimMergeFromRejects covers every refusal: config-count
// mismatch, geometry mismatch, sampling on either side, and mixed
// attribution modes.
func TestMultiSimMergeFromRejects(t *testing.T) {
	base := []cache.Config{{Size: 2048, BlockSize: 32, Assoc: 2, Repl: cache.ReplLRU}}
	mk := func(opts MultiOptions) *MultiSim {
		t.Helper()
		ms, err := NewMulti(opts)
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	cases := []struct {
		name string
		a, b *MultiSim
	}{
		{"config count", mk(MultiOptions{Configs: base}),
			mk(MultiOptions{Configs: append([]cache.Config{{Size: 1024, BlockSize: 32, Assoc: 1}}, base...)})},
		{"set counts", mk(MultiOptions{Configs: base}),
			mk(MultiOptions{Configs: []cache.Config{{Size: 4096, BlockSize: 32, Assoc: 2, Repl: cache.ReplLRU}}})},
		{"sampling on other", mk(MultiOptions{Configs: base}),
			mk(MultiOptions{Configs: base, Sampling: Sampling{Interval: 4}, StatsOnly: true})},
		{"stats-only mismatch", mk(MultiOptions{Configs: base}),
			mk(MultiOptions{Configs: base, StatsOnly: true})},
	}
	for _, tc := range cases {
		if err := tc.a.MergeFrom(tc.b); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
	if err := mk(MultiOptions{Configs: base, Sampling: Sampling{Interval: 4}, StatsOnly: true}).
		MergeFrom(mk(MultiOptions{Configs: base, Sampling: Sampling{Interval: 4}, StatsOnly: true})); err == nil {
		t.Error("sampling on both sides: want error (interval state spans the stream)")
	}
}

// TestMultiSimEmptyTraceScales is the zero-records regression: every
// scale must be a safe 1.0 — never NaN or Inf — and the report and scaled
// stats must render cleanly when a simulator saw no records at all (an
// empty trace, or an empty shard of a sharded run).
func TestMultiSimEmptyTraceScales(t *testing.T) {
	samplings := []Sampling{{}, {Interval: 4}}
	cfgs := []cache.Config{
		{Size: 2048, BlockSize: 32, Assoc: 2, Repl: cache.ReplLRU},
		{Size: 4096, BlockSize: 32, Assoc: 1},
	}
	for _, sm := range samplings {
		ms, err := NewMulti(MultiOptions{Configs: cfgs, Sampling: sm, StatsOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := ms.RecordScale(); got != 1 {
			t.Errorf("sampling %+v: empty RecordScale() = %v, want 1", sm, got)
		}
		for i := range cfgs {
			st := ms.ScaledStats(i)
			if st.Accesses() != 0 || st.Misses() != 0 {
				t.Errorf("sampling %+v config %d: empty ScaledStats = %d/%d, want zeros",
					sm, i, st.Misses(), st.Accesses())
			}
		}
	}
	// Full-attribution empty report path: must render without NaN/Inf.
	ms, err := NewMulti(MultiOptions{Configs: cfgs})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		rep := ms.Report(i)
		if rep == "" {
			t.Errorf("config %d: empty-trace report is empty", i)
		}
		if strings.Contains(rep, "NaN") || strings.Contains(rep, "Inf") {
			t.Errorf("config %d: empty-trace report contains NaN/Inf:\n%s", i, rep)
		}
	}
}

// TestMultiSimShardedRecordsEmpty pins the sharded entry points on the
// degenerate inputs: an empty record slice and an empty indexed trace
// both yield a usable zero-shard result (Shards == 0 from either entry
// point), and shard counts clamp to the record count.
func TestMultiSimShardedRecordsEmpty(t *testing.T) {
	cfgs := []cache.Config{{Size: 2048, BlockSize: 32, Assoc: 2, Repl: cache.ReplLRU}}
	var buf bytes.Buffer
	bw := trace.NewBinaryWriter(&buf)
	bw.EnableIndex()
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.NewIndexedBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func() (*MultiShardedResult, error){
		"records": func() (*MultiShardedResult, error) {
			return MultiSimShardedRecords(context.Background(), nil, MultiOptions{Configs: cfgs}, 4)
		},
		"indexed": func() (*MultiShardedResult, error) {
			return MultiSimSharded(tr, MultiOptions{Configs: cfgs}, 4, trace.DecodeOptions{})
		},
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Shards != 0 || res.Requested != 4 || len(res.Boundaries) != 0 {
			t.Errorf("%s: empty input ran %d of %d shards, boundaries %v; want 0 of 4, none",
				name, res.Shards, res.Requested, res.Boundaries)
		}
		if res.Sim.Records() != 0 {
			t.Errorf("%s: empty input: %d records", name, res.Sim.Records())
		}
		if sc := res.Sim.RecordScale(); sc != 1 {
			t.Errorf("%s: empty input: RecordScale() = %v, want 1", name, sc)
		}
		if rep := res.Sim.Report(0); strings.Contains(rep, "NaN") || strings.Contains(rep, "Inf") {
			t.Errorf("%s: empty sharded report contains NaN/Inf:\n%s", name, rep)
		}
	}

	recs := multiRecords(3, 2)
	res, err := MultiSimShardedRecords(context.Background(), recs, MultiOptions{Configs: cfgs}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requested != 16 || res.Shards > len(recs) {
		t.Errorf("clamp: requested %d effective %d over %d records", res.Requested, res.Shards, len(recs))
	}
	if res.Sim.Records() != int64(len(recs)) {
		t.Errorf("clamp: %d records simulated, want %d", res.Sim.Records(), len(recs))
	}
}

// TestShardedRefusesTranslate: a Translate cannot serve concurrent shards
// (pagemap.Mapper writes its page map on first touch), so both sharded
// entry points refuse it at every shard count, before any shard runs.
func TestShardedRefusesTranslate(t *testing.T) {
	cfgs := []cache.Config{{Size: 2048, BlockSize: 32, Assoc: 2, Repl: cache.ReplLRU}}
	recs := multiRecords(2000, 4)
	var buf bytes.Buffer
	bw := trace.NewBinaryWriter(&buf)
	bw.EnableIndex()
	bw.SetBlockRecords(100)
	for i := range recs {
		if err := bw.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.NewIndexedBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	translated := 0
	opts := MultiOptions{Configs: cfgs, Translate: func(a uint64) uint64 { translated++; return a }}
	for _, shards := range []int{1, 2, 0} {
		for name, run := range map[string]func() (*MultiShardedResult, error){
			"MultiSimShardedContext": func() (*MultiShardedResult, error) {
				return MultiSimShardedContext(context.Background(), tr, opts, shards, trace.DecodeOptions{})
			},
			"MultiSimShardedRecords": func() (*MultiShardedResult, error) {
				return MultiSimShardedRecords(context.Background(), recs, opts, shards)
			},
		} {
			res, err := run()
			if err == nil || !strings.Contains(err.Error(), "physical indexing is not shardable") {
				t.Errorf("%s with %d shards and a Translate: result %v, error %v; want the refusal", name, shards, res, err)
			}
		}
	}
	if translated != 0 {
		t.Errorf("refused runs translated %d addresses", translated)
	}
}
