package tracer

import (
	"sync"
	"testing"

	"tracedst/internal/workloads"
)

// TestSharedProgramConcurrentRuns runs one parsed program in four
// RunProgram calls at once, and wants each trace to equal a serial run's:
// a compiled program keeps no run state, so runs that share it neither
// race (under -race) nor see one another's bindings, frames or heap.
func TestSharedProgramConcurrentRuns(t *testing.T) {
	for _, w := range []struct {
		name    string
		src     string
		defines map[string]string
	}{
		{"listing1", workloads.Listing1, nil},
		{"binsearch", workloads.BinSearch, map[string]string{"N": "64"}},
		{"list", workloads.ListTraversal, map[string]string{"N": "64"}},
		{"matmul", workloads.MatMul, map[string]string{"N": "8"}},
	} {
		prog := mustParse(t, w.src, w.defines)
		serial, err := RunProgram(prog, Options{})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		want := digestOf(t, serial)
		results := make([]*Result, 4)
		errs := make([]error, len(results))
		var wg sync.WaitGroup
		for i := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i], errs[i] = RunProgram(prog, Options{})
			}()
		}
		wg.Wait()
		for i, res := range results {
			if errs[i] != nil {
				t.Fatalf("%s run %d: %v", w.name, i, errs[i])
			}
			if got := digestOf(t, res); got != want || res.Return != serial.Return {
				t.Errorf("%s run %d: digest %s return %d, serial run %s return %d",
					w.name, i, got, res.Return, want, serial.Return)
			}
		}
	}
}
