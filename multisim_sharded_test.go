// Golden equivalence suite for the sharded multi-configuration engine:
// full-attribution MultiSimSharded over an indexed .glb and
// MultiSimShardedRecords over text-decoded records must produce, for
// every workload and config, reports byte-identical to a serial MultiSim
// that flushes at each shard boundary — the same contract the
// single-config sharded engine honors.
package tracedst_test

import (
	"context"
	"testing"

	"tracedst/internal/dinero"
	"tracedst/internal/trace"
)

// refMultiReports runs the serial multi-config engine with a Flush at
// each boundary and renders every config's report.
func refMultiReports(t *testing.T, recs []trace.Record, boundaries []int64) []string {
	t.Helper()
	ref, err := dinero.NewMulti(dinero.MultiOptions{Configs: goldenConfigs})
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for _, b := range boundaries {
		ref.Process(recs[next:int(b)])
		ref.Flush()
		next = int(b)
	}
	ref.Process(recs[next:])
	reps := make([]string, len(goldenConfigs))
	for i := range goldenConfigs {
		reps[i] = ref.Report(i)
	}
	return reps
}

// TestMultiSimShardedGoldenAllWorkloads: all 15 workloads × {.glb indexed
// stream, text-decoded record slice} × {2, 4} shards, every golden
// config's full-attribution report byte-identical to the
// flush-at-boundary serial run. None of the golden configs use
// ReplRandom, whose draw stream cannot survive a shard split.
func TestMultiSimShardedGoldenAllWorkloads(t *testing.T) {
	ctx := context.Background()
	for _, name := range sortedWorkloads() {
		recs := traceWorkload(t, name)
		data := encodeIndexedTrace(t, recs, 256)
		tr, err := trace.NewIndexedBytes(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The text container must decode to the same records the sharded
		// record-slice path consumes.
		_, _, decoded, err := trace.DecodeBytes(encodeTrace(t, recs, trace.FormatText), trace.DecodeOptions{}, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(decoded) != len(recs) {
			t.Fatalf("%s: text round-trip decoded %d records, want %d", name, len(decoded), len(recs))
		}

		for _, shards := range []int{2, 4} {
			glb, err := dinero.MultiSimSharded(tr, dinero.MultiOptions{Configs: goldenConfigs}, shards, trace.DecodeOptions{})
			if err != nil {
				t.Fatalf("%s/glb/shards=%d: %v", name, shards, err)
			}
			want := refMultiReports(t, recs, glb.Boundaries)
			for i, cfg := range goldenConfigs {
				if got := glb.Sim.Report(i); got != want[i] {
					t.Errorf("%s/glb/shards=%d config %s: sharded report diverges from flush-at-boundary serial:\n--- want ---\n%s\n--- got ---\n%s",
						name, shards, cfg.Name, want[i], got)
				}
			}
			if glb.Sim.Records() != int64(len(recs)) {
				t.Errorf("%s/glb/shards=%d: %d records simulated, want %d",
					name, shards, glb.Sim.Records(), len(recs))
			}

			rec, err := dinero.MultiSimShardedRecords(ctx, decoded, dinero.MultiOptions{Configs: goldenConfigs}, shards)
			if err != nil {
				t.Fatalf("%s/text/shards=%d: %v", name, shards, err)
			}
			want = refMultiReports(t, decoded, rec.Boundaries)
			for i, cfg := range goldenConfigs {
				if got := rec.Sim.Report(i); got != want[i] {
					t.Errorf("%s/text/shards=%d config %s: sharded record-slice report diverges from flush-at-boundary serial:\n--- want ---\n%s\n--- got ---\n%s",
						name, shards, cfg.Name, want[i], got)
				}
			}
		}
	}
}

// TestMultiSimShardedRejects pins the shardability preconditions at the
// entry point: sampling refuses up front rather than producing a silently
// wrong merge.
func TestMultiSimShardedRejects(t *testing.T) {
	recs := traceWorkload(t, sortedWorkloads()[0])
	if _, err := dinero.MultiSimShardedRecords(context.Background(), recs,
		dinero.MultiOptions{Configs: goldenConfigs, Sampling: dinero.Sampling{Interval: 4}, StatsOnly: true}, 2); err == nil {
		t.Error("interval sampling: want error")
	}
}
