// End-to-end robustness tests for the fault-tolerant ingestion layer: the
// fault-injection harness corrupts real workload traces and drives both
// decoder modes, the validator, and the glcheck binary, proving the
// acceptance criteria of the ingestion subsystem:
//
//   - strict mode fails with a line-numbered error on every corruption class
//   - lenient mode skips within MaxBadLines, reporting each skip, and for
//     lossless corruption classes produces simulation results identical to
//     the clean trace
//   - glcheck exits non-zero on every seeded corruption and zero on every
//     shipped workload trace
package tracedst_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"tracedst/internal/cache"
	"tracedst/internal/dinero"
	"tracedst/internal/faultinject"
	"tracedst/internal/trace"
	"tracedst/internal/tracer"
	"tracedst/internal/workloads"
)

// cleanWorkloadTrace renders one built-in workload's trace as text.
func cleanWorkloadTrace(t *testing.T, name string) string {
	t.Helper()
	w, ok := workloads.Named[name]
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	res, err := tracer.Run(w.Source, w.Defines, tracer.Options{PID: 4242})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return trace.Format(res.Header, res.Records)
}

func TestStrictModeFailsEveryCorruptionClass(t *testing.T) {
	clean := cleanWorkloadTrace(t, "listing1")
	for _, c := range faultinject.Classes() {
		corrupted := c.Apply(clean, 1)
		_, _, err := trace.ParseAll(corrupted)
		if err == nil {
			t.Errorf("%s: strict decode accepted corrupted trace", c.Name)
			continue
		}
		if !strings.Contains(err.Error(), "line ") {
			t.Errorf("%s: error lacks line number: %v", c.Name, err)
		}
	}
}

func TestLenientModeSkipsAndReports(t *testing.T) {
	clean := cleanWorkloadTrace(t, "listing1")
	_, cleanRecs, err := trace.ParseAll(clean)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range faultinject.Classes() {
		if !c.Skippable {
			continue
		}
		corrupted := c.Apply(clean, 1)
		var reported []int
		rd := trace.NewReaderOptions(strings.NewReader(corrupted), trace.DecodeOptions{
			Mode: trace.Lenient,
			OnError: func(line int, text string, err error) {
				reported = append(reported, line)
			},
		})
		recs, err := rd.ReadAll()
		if err != nil {
			t.Errorf("%s: lenient decode failed: %v", c.Name, err)
			continue
		}
		if len(reported) == 0 || rd.BadLines() != len(reported) {
			t.Errorf("%s: callback fired %d times, BadLines=%d", c.Name, len(reported), rd.BadLines())
		}
		if len(recs) > len(cleanRecs) {
			t.Errorf("%s: recovered %d records from a trace of %d", c.Name, len(recs), len(cleanRecs))
		}
		if c.Lossless {
			if len(recs) != len(cleanRecs) {
				t.Errorf("%s: recovered %d records, want all %d", c.Name, len(recs), len(cleanRecs))
				continue
			}
			for i := range recs {
				if !recs[i].Equal(&cleanRecs[i]) {
					t.Errorf("%s: record %d differs after lenient recovery", c.Name, i)
					break
				}
			}
		}
	}
}

func TestLenientBudgetIsEnforced(t *testing.T) {
	clean := cleanWorkloadTrace(t, "listing1")
	corrupted := faultinject.BitFlipOps(clean, 1, 3)
	decode := func(budget int) error {
		rd := trace.NewReaderOptions(strings.NewReader(corrupted), trace.DecodeOptions{
			Mode:        trace.Lenient,
			MaxBadLines: budget,
		})
		_, err := rd.ReadAll()
		return err
	}
	if err := decode(3); err != nil {
		t.Errorf("budget 3 for 3 bad lines should pass: %v", err)
	}
	err := decode(2)
	if err == nil {
		t.Fatal("budget 2 for 3 bad lines should fail")
	}
	if !strings.Contains(err.Error(), "budget") || !strings.Contains(err.Error(), "line ") {
		t.Errorf("budget error lacks context: %v", err)
	}
	var ble *trace.BadLineError
	if !errors.As(err, &ble) {
		t.Errorf("budget error does not wrap BadLineError: %v", err)
	}
}

// TestLenientSimulationMatchesClean proves the acceptance criterion that
// lenient ingestion of losslessly-corrupted traces yields simulation
// results identical to the clean trace.
func TestLenientSimulationMatchesClean(t *testing.T) {
	clean := cleanWorkloadTrace(t, "trans1-soa")
	_, cleanRecs, err := trace.ParseAll(clean)
	if err != nil {
		t.Fatal(err)
	}
	simReport := func(recs []trace.Record) string {
		sim, err := dinero.New(dinero.Options{L1: cache.Paper32KDirect()})
		if err != nil {
			t.Fatal(err)
		}
		sim.Process(recs)
		return sim.Report()
	}
	want := simReport(cleanRecs)
	for _, c := range faultinject.Classes() {
		if !c.Lossless {
			continue
		}
		corrupted := c.Apply(clean, 7)
		rd := trace.NewReaderOptions(strings.NewReader(corrupted), trace.DecodeOptions{Mode: trace.Lenient})
		recs, err := rd.ReadAll()
		if err != nil {
			t.Errorf("%s: lenient decode failed: %v", c.Name, err)
			continue
		}
		if got := simReport(recs); got != want {
			t.Errorf("%s: simulation results differ from clean trace", c.Name)
		}
	}
}

// TestValidatorPassesAllShippedWorkloads: every built-in workload trace
// must validate with zero errors and zero warnings.
func TestValidatorPassesAllShippedWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("traces every workload")
	}
	for name, w := range workloads.Named {
		res, err := tracer.Run(w.Source, w.Defines, tracer.Options{PID: 4242})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		src := trace.Format(res.Header, res.Records)
		rep, err := trace.Validate(strings.NewReader(src), trace.ValidateOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.OK() || rep.Warnings() > 0 {
			t.Errorf("%s: %s", name, rep.Summary())
		}
		if rep.Records != len(res.Records) {
			t.Errorf("%s: validated %d records, want %d", name, rep.Records, len(res.Records))
		}
	}
}

func TestValidatorFlagsEveryCorruptionClass(t *testing.T) {
	clean := cleanWorkloadTrace(t, "listing1")
	for _, c := range faultinject.Classes() {
		rep, err := trace.Validate(strings.NewReader(c.Apply(clean, 1)), trace.ValidateOptions{})
		if err != nil {
			t.Errorf("%s: validator aborted: %v", c.Name, err)
			continue
		}
		if rep.OK() {
			t.Errorf("%s: validator passed a corrupted trace:\n%s", c.Name, rep.Summary())
		}
	}
}

// runGlcheck executes the glcheck binary and returns its exit code.
func runGlcheck(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildTools(t), "glcheck"), args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("glcheck %v: %v", args, err)
	}
	return ee.ExitCode(), string(out)
}

func TestGlcheckCLIT1(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	clean := cleanWorkloadTrace(t, "listing1")
	cleanPath := filepath.Join(dir, "clean.out")
	if err := os.WriteFile(cleanPath, []byte(clean), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out := runGlcheck(t, cleanPath); code != 0 {
		t.Errorf("clean trace: exit %d\n%s", code, out)
	}
	for _, c := range faultinject.Classes() {
		p := filepath.Join(dir, c.Name+".out")
		if err := os.WriteFile(p, []byte(c.Apply(clean, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		code, out := runGlcheck(t, p)
		if code != 1 {
			t.Errorf("%s: exit %d, want 1\n%s", c.Name, code, out)
		}
		if !strings.Contains(out, "FAIL") {
			t.Errorf("%s: output lacks FAIL marker:\n%s", c.Name, out)
		}
	}
	// Missing file is an I/O problem: exit 2.
	if code, _ := runGlcheck(t, filepath.Join(dir, "nope.out")); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}

// TestGlcheckRejectsOutOfRangeFields: glcheck exits 1 and names the
// field when a size, frame or thread lies one step past the 32-bit range
// a record holds, in a text trace and in a .glb block whose checksum
// still holds.
func TestGlcheckRejectsOutOfRangeFields(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	for _, c := range []struct {
		field      string
		line       string // a local load, the field's value left to fill in
		edge, past int64
	}{
		{"size", "L 7ff0001b0 %d main LV 0 1 i", math.MaxInt32, math.MaxInt32 + 1},
		{"frame", "L 7ff0001b0 8 main LV %d 1 i", math.MaxInt32, math.MaxInt32 + 1},
		{"frame", "L 7ff0001b0 8 main LV %d 1 i", math.MinInt32, math.MinInt32 - 1},
		{"thread", "L 7ff0001b0 8 main LV 0 %d i", math.MaxInt32, math.MaxInt32 + 1},
		{"thread", "L 7ff0001b0 8 main LV 0 %d i", math.MinInt32, math.MinInt32 - 1},
	} {
		h, recs, err := trace.ParseAll("START PID 7\n" + fmt.Sprintf(c.line, c.edge) + "\n")
		if err != nil {
			t.Fatal(err)
		}
		var glb bytes.Buffer
		w := trace.NewBinaryWriter(&glb)
		if err := w.WriteHeader(h); err != nil {
			t.Fatal(err)
		}
		if err := w.Write(&recs[0]); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		forged := faultinject.GLBForgeVarint(glb.Bytes(), c.edge, c.past)
		if bytes.Equal(forged, glb.Bytes()) {
			t.Fatalf("%s=%d: no block holds the value", c.field, c.edge)
		}
		for _, f := range []struct {
			ext  string
			data []byte
		}{
			{".out", []byte("START PID 7\n" + fmt.Sprintf(c.line, c.past) + "\n")},
			{".glb", forged},
		} {
			p := filepath.Join(dir, fmt.Sprintf("%s%d%s", c.field, c.past, f.ext))
			if err := os.WriteFile(p, f.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if code, out := runGlcheck(t, "-no-region-checks", p); code != 1 || !strings.Contains(out, "bad "+c.field) {
				t.Errorf("%s: exit %d, want 1 naming bad %s\n%s", filepath.Base(p), code, c.field, out)
			}
		}
	}
}

// TestLenientCLIPipelineT1 drives the strict/lenient flags through the
// real dinero binary: strict ingestion of a garbage-interleaved trace must
// fail, lenient ingestion must succeed and report the same totals as the
// clean trace.
func TestLenientCLIPipelineT1(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	clean := cleanWorkloadTrace(t, "trans1-soa")
	corrupted := faultinject.InterleaveGarbage(clean, 3, 5)
	cleanPath := filepath.Join(dir, "clean.out")
	badPath := filepath.Join(dir, "bad.out")
	if err := os.WriteFile(cleanPath, []byte(clean), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(badPath, []byte(corrupted), 0o644); err != nil {
		t.Fatal(err)
	}

	bin := filepath.Join(buildTools(t), "dinero")
	strict := exec.Command(bin, badPath)
	if out, err := strict.CombinedOutput(); err == nil {
		t.Errorf("strict dinero accepted corrupted trace:\n%s", out)
	} else if !strings.Contains(string(out), "line ") {
		t.Errorf("strict dinero error lacks line number:\n%s", out)
	}

	want := runTool(t, "dinero", cleanPath)
	var stderr strings.Builder
	lenient := exec.Command(bin, "-lenient", badPath)
	lenient.Stderr = &stderr
	got, err := lenient.Output()
	if err != nil {
		t.Fatalf("lenient dinero failed: %v\n%s", err, stderr.String())
	}
	if string(got) != want {
		t.Error("lenient simulation of garbage-interleaved trace differs from clean run")
	}
	if !strings.Contains(stderr.String(), "skipping line") {
		t.Errorf("lenient dinero did not report skips:\n%s", stderr.String())
	}
}
