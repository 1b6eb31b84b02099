// Streaming-pipeline equivalence suite: the constant-memory paths must be
// indistinguishable from the materializing ones. For every built-in
// workload, a simulator fed batch-by-batch from a RecordSource renders the
// byte-identical report to one fed the materialized slice; K-way sharded
// streaming of a one-config MultiSim over an indexed .glb merges to
// exactly the serial flush-at-boundary reference; and the live heap of a
// streaming run stays O(batch) however large the trace file is.
package tracedst_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"tracedst/internal/cache"
	"tracedst/internal/cliutil"
	"tracedst/internal/ctype"
	"tracedst/internal/dinero"
	"tracedst/internal/trace"
)

// encodeIndexedTrace renders records to the binary container with the
// block-index footer and the given block size.
func encodeIndexedTrace(t testing.TB, recs []trace.Record, blockRecs int) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := trace.NewBinaryWriter(&buf)
	bw.EnableIndex()
	if blockRecs > 0 {
		bw.SetBlockRecords(blockRecs)
	}
	for i := range recs {
		if err := bw.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamingGoldenAllWorkloads: for all 15 workloads × {text, binary},
// a simulator fed through the streaming RecordSource path produces the
// byte-identical report to one fed the materialized record slice.
func TestStreamingGoldenAllWorkloads(t *testing.T) {
	formats := []struct {
		name string
		f    trace.FileFormat
	}{{"text", trace.FormatText}, {"binary", trace.FormatBinary}}
	for _, name := range sortedWorkloads() {
		recs := traceWorkload(t, name)

		want := make([]string, len(goldenConfigs))
		for i, cfg := range goldenConfigs {
			sim, err := dinero.New(dinero.Options{L1: cfg})
			if err != nil {
				t.Fatal(err)
			}
			sim.Process(recs)
			want[i] = sim.Report()
		}

		for _, fm := range formats {
			data := encodeTrace(t, recs, fm.f)
			for i, cfg := range goldenConfigs {
				sim, err := dinero.New(dinero.Options{L1: cfg})
				if err != nil {
					t.Fatal(err)
				}
				src, gotFmt, err := trace.OpenReader(bytes.NewReader(data), trace.DecodeOptions{})
				if err != nil {
					t.Fatalf("%s/%s: %v", name, fm.name, err)
				}
				if gotFmt != fm.f {
					t.Fatalf("%s/%s: sniffed %v", name, fm.name, gotFmt)
				}
				if err := sim.ProcessSource(src); err != nil {
					t.Fatalf("%s/%s: %v", name, fm.name, err)
				}
				if rep := sim.Report(); rep != want[i] {
					t.Errorf("%s/%s config %s: streaming report diverges from materialized run:\n--- want ---\n%s\n--- got ---\n%s",
						name, fm.name, cfg.Name, want[i], rep)
				}
			}
		}
	}
}

// TestShardedStreamingGoldenAllWorkloads: K-way sharded streaming of a
// one-config MultiSim over an indexed trace — what dinero -shards runs —
// reduced with MergeFrom, equals — byte-for-byte in the rendered report —
// a serial dinero.New run that flushes the cache at the shard boundaries.
// All 15 workloads, every golden config (none use ReplRandom, whose draw
// stream cannot survive a shard split).
func TestShardedStreamingGoldenAllWorkloads(t *testing.T) {
	for _, name := range sortedWorkloads() {
		recs := traceWorkload(t, name)
		data := encodeIndexedTrace(t, recs, 256)
		tr, err := trace.NewIndexedBytes(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tr.Records() != int64(len(recs)) {
			t.Fatalf("%s: index says %d records, want %d", name, tr.Records(), len(recs))
		}
		for _, shards := range []int{2, 4} {
			for _, cfg := range goldenConfigs {
				res, err := dinero.MultiSimSharded(tr, dinero.MultiOptions{Configs: []cache.Config{cfg}}, shards, trace.DecodeOptions{})
				if err != nil {
					t.Fatalf("%s/%s/shards=%d: %v", name, cfg.Name, shards, err)
				}

				ref, err := dinero.New(dinero.Options{L1: cfg})
				if err != nil {
					t.Fatal(err)
				}
				next := 0
				for _, b := range res.Boundaries {
					ref.Process(recs[next:int(b)])
					ref.Flush()
					next = int(b)
				}
				ref.Process(recs[next:])

				if got, want := res.Sim.Report(0), ref.Report(); got != want {
					t.Errorf("%s/%s/shards=%d: sharded report diverges from flush-at-boundary serial:\n--- want ---\n%s\n--- got ---\n%s",
						name, cfg.Name, shards, want, got)
				}
			}
		}
	}
}

// TestShardedSimulateCancel: a cancelled context stops every shard worker
// with the context's error instead of a partial result — the cooperative
// half of SIGTERM handling (the signal just cancels this context).
func TestShardedSimulateCancel(t *testing.T) {
	recs := traceWorkload(t, "matmul")
	data := encodeIndexedTrace(t, recs, 64)
	tr, err := trace.NewIndexedBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	opts := dinero.MultiOptions{Configs: goldenConfigs[:1]}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = dinero.MultiSimShardedContext(ctx, tr, opts, 2, trace.DecodeOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// An uncancelled context changes nothing about the result.
	res, err := dinero.MultiSimShardedContext(context.Background(), tr, opts, 2, trace.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := dinero.MultiSimSharded(tr, opts, 2, trace.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sim.Report(0) != plain.Sim.Report(0) {
		t.Fatal("context-threaded sharded run diverges from plain run")
	}
}

// streamHeapBound is the live-heap ceiling the streaming path must stay
// under while simulating a trace whose materialized form is an order of
// magnitude larger.
const streamHeapBound = 64 << 20

// writeBigTrace streams nrecs synthetic records to a .glb file without
// materializing them and returns the path.
func writeBigTrace(t *testing.T, nrecs int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "big.glb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	bw := trace.NewBinaryWriter(f)
	bw.EnableIndex()
	rec := trace.Record{Op: trace.Load, Size: 4}
	sites := make([]*trace.Site, 97)
	for i := range sites {
		sites[i] = trace.NewSite(fmt.Sprintf("fn%d", i), ctype.AccessExpr{})
	}
	for i := 0; i < nrecs; i++ {
		// Vary function and address so the string table and delta encoder
		// both do real work.
		rec.Site = sites[i%97]
		rec.Addr = 0x601000 + uint64(i%4096)*64
		if i%3 == 0 {
			rec.Op = trace.Store
		} else {
			rec.Op = trace.Load
		}
		if err := bw.Write(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestStreamingConstantMemory pins the streaming simulate path to O(batch)
// live heap: 2M records (hundreds of MB materialized as Record structs)
// stream through a simulator while sampled HeapAlloc stays under a bound
// an in-memory slice of them could not fit in.
func TestStreamingConstantMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-record trace generation")
	}
	const nrecs = 2_000_000
	path := writeBigTrace(t, nrecs)

	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	sim, err := dinero.New(dinero.Options{L1: goldenConfigs[0]})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := cliutil.OpenTraceSource(path, trace.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	var peak uint64
	var ms runtime.MemStats
	batches := 0
	for {
		batch, err := ts.NextBatch()
		if err != nil {
			break
		}
		sim.Process(batch)
		if batches%16 == 0 {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
		}
		batches++
	}
	if ts.Records() != nrecs {
		t.Fatalf("streamed %d records, want %d", ts.Records(), nrecs)
	}
	if sim.Records() != nrecs {
		t.Fatalf("simulated %d records, want %d", sim.Records(), nrecs)
	}
	growth := int64(peak) - int64(base.HeapAlloc)
	t.Logf("peak HeapAlloc growth %d bytes over %d batches", growth, batches)
	if growth > streamHeapBound {
		t.Fatalf("live heap grew %d bytes while streaming, bound %d — streaming path is materializing",
			growth, streamHeapBound)
	}
}
