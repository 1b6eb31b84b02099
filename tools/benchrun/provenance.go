package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// provenance records what produced a result: host, toolchain, revision,
// inputs and how much work the run measured.
type provenance struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"vcs_revision,omitempty"`
	Modified   bool    `json:"vcs_modified,omitempty"`
	Seed       int64   `json:"seed"`
	StateFS    string  `json:"state_fs"`
	Seconds    float64 `json:"seconds"`
	SetupReps  int     `json:"min_setups"`
	NeedsProcs int     `json:"needs_procs"`
}

func collectProvenance(rc *runConfig, w *workload) *provenance {
	p := &provenance{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Seed:       rc.seed,
		StateFS:    fsType(stateRoot),
		Seconds:    rc.window.Seconds(),
		SetupReps:  rc.setupReps,
		NeedsProcs: w.procs,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value == "true"
			}
		}
	}
	return p
}

// cpuModel reads the CPU model name ("unknown" where /proc is absent).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
