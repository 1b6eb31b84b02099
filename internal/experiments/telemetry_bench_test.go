package experiments

import (
	"context"
	"io"
	"testing"
	"time"

	"tracedst/internal/telemetry"
)

// BenchmarkSweepTelemetry measures the full layout-sweep engine with the
// observability layer in its two states: "noop" is the library default
// (discard logger) and "enabled" is what the CLIs install (real registry
// plus an active text logger). The two modes alternate within each
// iteration so clock drift, CPU steal and GC phase affect both equally,
// and each mode's cost is reported as its own metric from the single run.
// The CI bench guard compares the two and fails the build if the enabled
// path costs more than 2% — the telemetry layer must stay invisible in
// the simulation profile.
func BenchmarkSweepTelemetry(b *testing.B) {
	serial := RunOptions{Workers: 1}
	if _, err := Sweeps(context.Background(), serial); err != nil { // warm the trace memos
		b.Fatal(err)
	}
	recs := sweepRecordCount(b)
	log, err := telemetry.NewLogger(io.Discard, "bench", telemetry.FormatText, false)
	if err != nil {
		b.Fatal(err)
	}
	prevReg := telemetry.Default()
	prevLog := telemetry.L()
	defer func() {
		telemetry.SetDefault(prevReg)
		telemetry.SetLogger(prevLog)
	}()

	sweep := func() time.Duration {
		t0 := time.Now()
		if _, err := Sweeps(context.Background(), serial); err != nil {
			b.Fatal(err)
		}
		return time.Since(t0)
	}
	var noopNS, enabledNS time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		telemetry.SetDefault(telemetry.NewRegistry())
		telemetry.SetLogger(telemetry.Nop())
		noopNS += sweep()

		telemetry.SetDefault(telemetry.NewRegistry())
		telemetry.SetLogger(log)
		enabledNS += sweep()
	}
	b.StopTimer()
	b.ReportMetric(float64(noopNS)/float64(b.N), "noop_ns/op")
	b.ReportMetric(float64(enabledNS)/float64(b.N), "enabled_ns/op")
	b.ReportMetric(2*float64(recs)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}
