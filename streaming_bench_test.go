// Benchmark for the streaming simulate path against the classic
// decode-then-simulate pipeline on the matmul workload trace. Both modes
// run inside each iteration, alternating, so scheduler noise and GC phase
// hit them equally; each mode's cost comes out as its own metric and CI
// holds the streaming path's overhead with tools/benchguard. Run with:
//
//	go test . -run xxx -bench StreamingSimulate -benchmem
package tracedst_test

import (
	"bytes"
	"testing"
	"time"

	"tracedst/internal/dinero"
	"tracedst/internal/trace"
)

// BenchmarkStreamingSimulate: "materialized" is ReadAll into one record
// slice then Process; "streaming" is ProcessSource over a batch iterator
// that never holds more than one block of records. The reports must stay
// byte-identical; the interesting numbers are streaming_ns/op (CI bounds
// it within 10% of materialized_ns/op) and the allocation gap visible
// under -benchmem.
func BenchmarkStreamingSimulate(b *testing.B) {
	f := loadCodec(b)
	cfg := goldenConfigs[2] // rr-32k-64w, the paper geometry
	b.SetBytes(int64(len(f.binary)))
	b.ReportAllocs()
	var matNS, strNS time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		rd := trace.NewBinaryReader(bytes.NewReader(f.binary))
		recs, err := rd.ReadAll()
		if err != nil {
			b.Fatal(err)
		}
		mat, err := dinero.New(dinero.Options{L1: cfg})
		if err != nil {
			b.Fatal(err)
		}
		mat.Process(recs)
		matRep := mat.Report()
		matNS += time.Since(t0)

		t0 = time.Now()
		src, _, err := trace.OpenReader(bytes.NewReader(f.binary), trace.DecodeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		sim, err := dinero.New(dinero.Options{L1: cfg})
		if err != nil {
			b.Fatal(err)
		}
		if err := sim.ProcessSource(src); err != nil {
			b.Fatal(err)
		}
		strRep := sim.Report()
		strNS += time.Since(t0)

		if strRep != matRep {
			b.Fatal("streaming report diverges from materialized report")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(matNS)/float64(b.N), "materialized_ns/op")
	b.ReportMetric(float64(strNS)/float64(b.N), "streaming_ns/op")
	b.ReportMetric(2*float64(len(f.recs))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkShardedSimulate measures the indexed sharded path end to end
// (footer lookup, per-shard block-range decode, simulate, merge) against
// the same serial streaming run, both on the one-config MultiSim that
// dinero runs. On a single-CPU host the two are expected to tie; on
// multi-core hosts the shards decode and simulate concurrently.
func BenchmarkShardedSimulate(b *testing.B) {
	f := loadCodec(b)
	data := encodeIndexedTrace(b, f.recs, 0)
	tr, err := trace.NewIndexedBytes(data)
	if err != nil {
		b.Fatal(err)
	}
	opts := dinero.MultiOptions{Configs: goldenConfigs[2:3]}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	var serialNS, shardNS time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		src, _, err := trace.OpenReader(bytes.NewReader(data), trace.DecodeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		ms, err := dinero.NewMulti(opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := ms.ProcessSource(src); err != nil {
			b.Fatal(err)
		}
		serialNS += time.Since(t0)

		t0 = time.Now()
		res, err := dinero.MultiSimSharded(tr, opts, 4, trace.DecodeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Sim.Records() != int64(len(f.recs)) {
			b.Fatalf("sharded run simulated %d records, want %d", res.Sim.Records(), len(f.recs))
		}
		shardNS += time.Since(t0)
	}
	b.StopTimer()
	b.ReportMetric(float64(serialNS)/float64(b.N), "serial_ns/op")
	b.ReportMetric(float64(shardNS)/float64(b.N), "sharded4_ns/op")
	b.ReportMetric(2*float64(len(f.recs))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}
