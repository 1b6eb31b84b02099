package main

import (
	"math"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestQuickSmoke runs every workload for about a second, untraced and
// traced, with every oracle on, and checks the traced window's span
// export with the repository's span checker.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for about a second, twice")
	}
	spec, err := loadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	log := &spanLog{}
	for _, traced := range []bool{false, true} {
		decl := spec.EndToEnd
		if traced {
			decl = spec.PerLayer
		}
		for _, w := range allWorkloads {
			rc := &runConfig{
				seed:      1,
				window:    time.Second,
				traced:    traced,
				setupReps: 1,
				warmup:    200 * time.Millisecond,
				dir:       filepath.Join(t.TempDir(), w.name),
			}
			res, err := run(spec, w, rc, log)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d %v", w.name, traced, res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			for _, m := range decl {
				v, ok := res.Metrics[m.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%t: %s = %v (present %t)", w.name, traced, m.Name, v.Value, ok)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, must be positive", w.name, m.Name, v.Value)
				}
			}
		}
	}

	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := log.writeJSONL(spans); err != nil {
		t.Fatal(err)
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command to run tools/metricscheck")
	}
	cmd := exec.Command("go", "run", "./tools/metricscheck", "-spans", spans)
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Errorf("metricscheck -spans: %v\n%s", err, out)
	}
}
