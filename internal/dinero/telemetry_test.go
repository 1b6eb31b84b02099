package dinero

import (
	"io"
	"testing"

	"tracedst/internal/telemetry"
)

// TestFeedZeroAllocsWithTelemetry guards the hot-path contract of the
// observability layer: with a real registry and logger installed, the
// per-access Feed path still allocates nothing. All telemetry publishing
// happens once per finished simulation, never per access.
func TestFeedZeroAllocsWithTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	prevReg := telemetry.SetDefault(reg)
	log, err := telemetry.NewLogger(io.Discard, "dinero-test", telemetry.FormatText, false)
	if err != nil {
		t.Fatal(err)
	}
	prevLog := telemetry.SetLogger(log)
	defer func() {
		telemetry.SetDefault(prevReg)
		telemetry.SetLogger(prevLog)
	}()

	recs := benchRecords(4096, 16)
	s, err := New(Options{L1: benchL1()})
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: first touches allocate set pages; the steady state must not.
	s.Process(recs)

	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		s.Feed(&recs[i%len(recs)])
		i++
	})
	if allocs != 0 {
		t.Errorf("Feed allocates %.1f per access with telemetry enabled, want 0", allocs)
	}

	s.PublishTelemetry(reg)
	if got := reg.Counter("dinero.records_simulated").Value(); got == 0 {
		t.Error("PublishTelemetry recorded no simulated records")
	}
	if got := reg.Counter("dinero.page_allocs").Value(); got == 0 {
		t.Error("PublishTelemetry recorded no page allocations")
	}
}
