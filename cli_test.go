// End-to-end integration tests: build the real command-line tools and run
// the paper's full pipeline (Fig 2) through their binaries — trace,
// transform, diff, simulate, plot, profile.
package tracedst_test

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// tools lists every command built for the integration tests.
var tools = []string{"gltrace", "dinero", "dsxform", "tracediff", "glprof", "experiments", "dsx", "glcheck", "tracedstd"}

func buildTools(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "tracedst-bin")
		if buildErr != nil {
			return
		}
		for _, tool := range tools {
			cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, tool), "./cmd/"+tool)
			out, err := cmd.CombinedOutput()
			if err != nil {
				buildErr = err
				t.Logf("build %s: %s", tool, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("building tools: %v", buildErr)
	}
	return binDir
}

func runTool(t *testing.T, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildTools(t), name), args...)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstdout:\n%s\nstderr:\n%s", name, args, err, stdout.String(), stderr.String())
	}
	return stdout.String()
}

func TestCLIPipelineT1(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "trace.out")
	ruleFile := filepath.Join(dir, "soa2aos.rule")
	xformFile := filepath.Join(dir, "transformed_trace.out")

	// 1. gltrace: built-in workload → trace file.
	runTool(t, "gltrace", "-w", "trans1-soa", "-o", traceFile)
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "START PID") || !strings.Contains(string(data), "lSoA.mX[0]") {
		t.Fatalf("trace content:\n%.300s", data)
	}

	// 2. dsxform: apply the Listing 5 rule.
	rule := `
in:
struct lSoA { int mX[16]; double mY[16]; };
out:
struct lAoS { int mX; double mY; }[16];
`
	if err := os.WriteFile(ruleFile, []byte(rule), 0o644); err != nil {
		t.Fatal(err)
	}
	runTool(t, "dsxform", "-rules", ruleFile, "-o", xformFile, traceFile)
	xdata, err := os.ReadFile(xformFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(xdata), "lAoS[0].mX") || strings.Contains(string(xdata), "lSoA") {
		t.Fatalf("transformed trace:\n%.300s", xdata)
	}

	// 3. tracediff: 32 rewrites, nothing inserted.
	diffOut := runTool(t, "tracediff", "-stats-only", traceFile, xformFile)
	if !strings.Contains(diffOut, "rewritten 32") || !strings.Contains(diffOut, "inserted 0") {
		t.Fatalf("diff output:\n%s", diffOut)
	}

	// 4. dinero: simulate the transformed trace on the paper geometry.
	simOut := runTool(t, "dinero", "-l1-size", "32k", "-l1-bsize", "32", "-l1-assoc", "1", xformFile)
	for _, want := range []string{"Demand Fetches", "Per-variable statistics", "lAoS", "lI"} {
		if !strings.Contains(simOut, want) {
			t.Errorf("dinero output missing %q", want)
		}
	}

	// 5. dinero -csv: per-set histogram.
	csvFile := filepath.Join(dir, "per_set.csv")
	runTool(t, "dinero", "-csv", csvFile, xformFile)
	csvOut, err := os.ReadFile(csvFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csvOut), "set,") || !strings.Contains(string(csvOut), "lAoS hits") {
		t.Errorf("dinero -csv:\n%.200s", csvOut)
	}

	// 6. glprof: memory profile with reuse distances.
	profOut := runTool(t, "glprof", "-reuse", traceFile)
	for _, want := range []string{"memory profile", "reuse distances", "miss-ratio curve"} {
		if !strings.Contains(profOut, want) {
			t.Errorf("glprof output missing %q", want)
		}
	}
}

func TestCLIGltraceOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	// -list names the paper workloads.
	listOut := runTool(t, "gltrace", "-list")
	for _, want := range []string{"trans1-soa", "trans3-strd", "matmul", "listing1"} {
		if !strings.Contains(listOut, want) {
			t.Errorf("-list missing %q", want)
		}
	}
	// Filters and defines compose; output goes to stdout with "-o -".
	out := runTool(t, "gltrace", "-w", "trans1-soa", "-D", "LEN=4", "-only-var", "lSoA", "-o", "-")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1+8 { // header + 4 mX + 4 mY
		t.Errorf("filtered trace lines = %d:\n%s", len(lines), out)
	}
	// A custom source file.
	dir := t.TempDir()
	src := filepath.Join(dir, "p.c")
	if err := os.WriteFile(src, []byte(`int g; int main(void){ g = 1; return g; }`), 0o644); err != nil {
		t.Fatal(err)
	}
	out = runTool(t, "gltrace", "-src", src, "-trace-all", "-o", "-")
	if !strings.Contains(out, "GV g") {
		t.Errorf("custom source trace:\n%s", out)
	}
}

func TestCLIExperimentsFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	out := runTool(t, "experiments", "-fig", "11")
	for _, want := range []string{"fig11", "lSetHashingArray", "set pinning: 100%"} {
		if !strings.Contains(out, want) {
			t.Errorf("experiments output missing %q:\n%s", want, out)
		}
	}
	// Artifact files.
	dir := t.TempDir()
	runTool(t, "experiments", "-fig", "3", "-outdir", dir)
	if _, err := os.Stat(filepath.Join(dir, "fig3.csv")); err != nil {
		t.Errorf("fig3.csv not written: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig3.dat")); err != nil {
		t.Errorf("fig3.dat not written: %v", err)
	}
}

func TestCLIDineroPhysicalIndexing(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "t.out")
	runTool(t, "gltrace", "-w", "matmul", "-D", "N=8", "-o", traceFile)
	virt := runTool(t, "dinero", "-l1-size", "1m", "-l1-assoc", "1", traceFile)
	phys := runTool(t, "dinero", "-l1-size", "1m", "-l1-assoc", "1", "-phys", "shuffled", traceFile)
	if virt == phys {
		t.Log("virtual and physical reports identical (single page?) — tolerated")
	}
	if !strings.Contains(phys, "Demand Fetches") {
		t.Errorf("physical run malformed:\n%.200s", phys)
	}
}

// TestCLIDineroPhysRefusesShards: physical indexing runs serially only.
// -phys with -shards exits 1 naming why, for one shard count or several,
// one config or several, and never simulates; serial -phys over the same
// indexed .glb runs.
func TestCLIDineroPhysRefusesShards(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	bin := buildTools(t)
	indexed := filepath.Join(t.TempDir(), "t-idx.glb")
	runTool(t, "gltrace", "-w", "matmul", "-D", "N=16", "-format", "binary", "-glb-index", "-o", indexed)
	const want = "physical indexing is not shardable (shards would share one page map); run it serially"
	for _, args := range [][]string{
		{"-phys", "shuffled", "-shards", "2"},
		{"-phys", "seq", "-shards", "1"},
		{"-phys", "shuffled", "-shards", "2", "-config", "size=2k", "-config", "size=8k"},
	} {
		cmd := exec.Command(filepath.Join(bin, "dinero"), append(append([]string{"-l1-size", "2k", "-l1-assoc", "2"}, args...), indexed)...)
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: exit %v, want status 1", args, err)
		}
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("%v: stderr does not say %q:\n%s", args, want, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed a report:\n%.200s", args, stdout.String())
		}
	}
	if out := runTool(t, "dinero", "-l1-size", "2k", "-l1-assoc", "2", "-phys", "shuffled", indexed); !strings.Contains(out, "Demand Fetches") {
		t.Errorf("serial -phys run malformed:\n%.200s", out)
	}
}

// TestCLIDineroOneConfigParity: a plain dinero run is a one-config pass
// of the multi-config engine, so `dinero <flags>` prints exactly what
// `dinero -config size=<same> <flags>` prints after its banner line — on
// text, .glb and indexed .glb input, serial and with -shards 2, for a
// plain, a two-level and a miss-classifying geometry. Sharding needs the
// binary container, so on text both forms must fail alike.
func TestCLIDineroOneConfigParity(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	bin := buildTools(t)
	dir := t.TempDir()
	text := filepath.Join(dir, "t.out")
	glb := filepath.Join(dir, "t.glb")
	indexed := filepath.Join(dir, "t-idx.glb")
	runTool(t, "gltrace", "-w", "matmul", "-D", "N=16", "-o", text)
	runTool(t, "gltrace", "-w", "matmul", "-D", "N=16", "-format", "binary", "-o", glb)
	runTool(t, "gltrace", "-w", "matmul", "-D", "N=16", "-format", "binary", "-glb-index", "-o", indexed)

	run := func(args ...string) (stdout, stderr string, err error) {
		cmd := exec.Command(filepath.Join(bin, "dinero"), args...)
		var o, e strings.Builder
		cmd.Stdout, cmd.Stderr = &o, &e
		err = cmd.Run()
		return o.String(), e.String(), err
	}
	base := []string{"-l1-size", "2k", "-l1-assoc", "2"}
	for _, geom := range [][]string{{}, {"-with-l2"}, {"-l1-classify"}} {
		for _, mode := range [][]string{{}, {"-shards", "2"}} {
			for _, in := range []string{text, glb, indexed} {
				flags := append(append(append([]string{}, base...), geom...), mode...)
				name := strings.Join(append(append([]string{}, flags...), filepath.Base(in)), " ")
				plainOut, plainErr, perr := run(append(flags, in)...)
				multiOut, multiErr, merr := run(append(flags, "-config", "size=2k", in)...)
				if sharded := len(mode) > 0; sharded && in == text {
					if perr == nil || merr == nil || plainErr != multiErr {
						t.Errorf("%s: want both forms to fail alike, got %v / %v:\n%s\n%s", name, perr, merr, plainErr, multiErr)
					}
					continue
				}
				if perr != nil || merr != nil {
					t.Fatalf("%s: %v / %v:\n%s\n%s", name, perr, merr, plainErr, multiErr)
				}
				banner, report, ok := strings.Cut(multiOut, "\n")
				if !ok || !strings.HasPrefix(banner, "==== config 1/1: ") {
					t.Fatalf("%s: -config run has no banner line:\n%.200s", name, multiOut)
				}
				if report != plainOut {
					t.Errorf("%s: -config report differs from the plain run:\n--- plain ---\n%s\n--- -config ---\n%s", name, plainOut, report)
				}
				if plainErr != multiErr {
					t.Errorf("%s: stderr differs:\n--- plain ---\n%s\n--- -config ---\n%s", name, plainErr, multiErr)
				}
			}
		}
	}
}

// TestCLIDineroSampledLine pins the line that marks an approximate run,
// under each title it applies to. Interval-sampled dinero names the scale,
// the records simulated out of those fed, the interval and the window, and
// claims no error bound, on the line after its banner that ends its
// output. Sharded dinero says what its reports equal above each report:
// under each banner, or first of all in a one-config run, which has no
// banner. A sampled or sharded experiments sweep says so under each
// table's title, and an exact sweep prints no such line.
func TestCLIDineroSampledLine(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	// 10,000 loads. At interval 4, 1,024-record windows 0, 4 and 8 run;
	// with the default 4,096-record window only window 0 runs.
	var b strings.Builder
	b.WriteString("START PID 1\n")
	for i := 0; i < 10000; i++ {
		fmt.Fprintf(&b, "L %x 4 main\n", 0x10000+4*(i%4096))
	}
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "t.out")
	if err := os.WriteFile(traceFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	// Sharding needs the binary container; matmul N=16 spans 11 blocks.
	glb := filepath.Join(dir, "t.glb")
	runTool(t, "gltrace", "-w", "matmul", "-D", "N=16", "-format", "binary", "-glb-index", "-o", glb)
	const sharded = "2 shards): equals a serial run with a cache flush at each shard boundary"
	for _, tc := range []struct {
		tool string
		args []string
		// prefix of a title line; "" when the output has none, and then
		// the marked line must open it.
		title  string
		titles int
		// prefix and suffix of the line under each title; "" when no
		// line is marked.
		prefix, suffix string
		last           bool // the marked line ends the output
	}{
		{"dinero", []string{"-sample-interval", "4", "-sample-window", "1024", traceFile}, "==== config 1/1: ", 1,
			"sampled estimate (scale ", "; simulated 3072 of 10000 records (interval 4, window 1024); no error bound claimed", true},
		{"dinero", []string{"-sample-interval", "4", traceFile}, "==== config 1/1: ", 1,
			"sampled estimate (scale ", "; simulated 4096 of 10000 records (interval 4, window 4096); no error bound claimed", true},
		{"dinero", []string{"-shards", "2", glb}, "", 1, "sharded (", sharded, false},
		{"dinero", []string{"-config", "size=2k", "-config", "size=4k,assoc=2", "-shards", "2", glb}, "==== config ", 2,
			"sharded (", sharded, false},
		{"dinero", []string{glb}, "", 1, "", "", false},
		{"experiments", []string{"-sweep", "-sample-interval", "4"}, "sweep-", 4,
			"sampled estimate (interval ", "4, window 4096); no error bound claimed", false},
		{"experiments", []string{"-sweep", "-shards", "2"}, "sweep-", 4,
			"sharded (", sharded, false},
		{"experiments", []string{"-sweep"}, "sweep-", 4, "", "", false},
	} {
		out := runTool(t, tc.tool, tc.args...)
		lines := strings.Split(out, "\n")
		title := tc.title
		if title == "" {
			// Check an untitled output as if a title opened it.
			title = "\x00untitled"
			lines = append([]string{title}, lines...)
		}
		titles, marked := 0, 0
		for i, line := range lines {
			if strings.HasPrefix(line, "sampled estimate ") || strings.HasPrefix(line, "sharded (") {
				marked++
			}
			if !strings.HasPrefix(line, title) {
				continue
			}
			titles++
			if tc.prefix == "" {
				continue
			}
			if i+1 == len(lines) || !strings.HasPrefix(lines[i+1], tc.prefix) || !strings.HasSuffix(lines[i+1], tc.suffix) {
				t.Errorf("%s %v: no line %q…%q under %q:\n%s", tc.tool, tc.args, tc.prefix, tc.suffix, line, out)
			} else if tc.last && i+3 != len(lines) {
				t.Errorf("%s %v: output goes on past the line under %q:\n%s", tc.tool, tc.args, line, out)
			}
		}
		wantMarked := 0
		if tc.prefix != "" {
			wantMarked = tc.titles
		}
		if titles != tc.titles || marked != wantMarked {
			t.Errorf("%s %v: %d titles and %d marked lines, want %d and %d:\n%s", tc.tool, tc.args, titles, marked, tc.titles, wantMarked, out)
		}
	}
}

func TestCLISteeringDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	ruleFile := filepath.Join(dir, "r.rule")
	rule := `
in:
struct lSoA { int mX[16]; double mY[16]; };
out:
struct lAoS { int mX; double mY; }[16];
`
	if err := os.WriteFile(ruleFile, []byte(rule), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runTool(t, "dsx", "-w", "trans1-soa", "-rules", ruleFile)
	for _, want := range []string{
		"rule: struct-remap  lSoA → lAoS",
		"32 rewritten",
		"original", "transformed", "per-set occupancy",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dsx output missing %q:\n%s", want, out)
		}
	}
}

// TestCLIBinaryFormatParity feeds every reading tool the same workload in
// text and in binary form and requires byte-identical reports, plus a
// text → binary → text dsxform round trip that reproduces the text
// transform exactly.
func TestCLIBinaryFormatParity(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	textTrace := filepath.Join(dir, "trace.out")
	binTrace := filepath.Join(dir, "trace.glb")
	runTool(t, "gltrace", "-w", "trans1-soa", "-o", textTrace)
	runTool(t, "gltrace", "-w", "trans1-soa", "-format", "binary", "-o", binTrace)
	tdata, err := os.ReadFile(textTrace)
	if err != nil {
		t.Fatal(err)
	}
	bdata, err := os.ReadFile(binTrace)
	if err != nil {
		t.Fatal(err)
	}
	if len(bdata) >= len(tdata) {
		t.Errorf("binary trace (%d bytes) not smaller than text (%d bytes)", len(bdata), len(tdata))
	}

	// Single-input readers: identical stdout on both encodings.
	for _, tc := range [][]string{
		{"dinero", "-l1-size", "32k", "-l1-bsize", "32", "-l1-assoc", "1"},
		{"glprof", "-reuse"},
		{"dinero", "-plot"},
	} {
		fromText := runTool(t, tc[0], append(tc[1:], textTrace)...)
		fromBin := runTool(t, tc[0], append(tc[1:], binTrace)...)
		if fromText != fromBin {
			t.Errorf("%s output differs between text and binary input", tc[0])
		}
	}

	// dsxform mirrors the input container; -format overrides it.
	ruleFile := filepath.Join(dir, "soa2aos.rule")
	rule := `
in:
struct lSoA { int mX[16]; double mY[16]; };
out:
struct lAoS { int mX; double mY; }[16];
`
	if err := os.WriteFile(ruleFile, []byte(rule), 0o644); err != nil {
		t.Fatal(err)
	}
	xformText := filepath.Join(dir, "xform.out")
	xformBin := filepath.Join(dir, "xform.glb")
	xformBack := filepath.Join(dir, "xform-back.out")
	runTool(t, "dsxform", "-rules", ruleFile, "-o", xformText, textTrace)
	runTool(t, "dsxform", "-rules", ruleFile, "-o", xformBin, binTrace)
	runTool(t, "dsxform", "-rules", ruleFile, "-format", "text", "-o", xformBack, binTrace)
	xt, err := os.ReadFile(xformText)
	if err != nil {
		t.Fatal(err)
	}
	xb, err := os.ReadFile(xformBin)
	if err != nil {
		t.Fatal(err)
	}
	back, err := os.ReadFile(xformBack)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(xt), "START PID") {
		t.Fatalf("text transform malformed:\n%.200s", xt)
	}
	if string(back) != string(xt) {
		t.Errorf("binary-input transform rendered to text differs from text-input transform")
	}
	if strings.HasPrefix(string(xb), "START PID") {
		t.Errorf("binary-input transform did not mirror the binary container")
	}

	// tracediff: identical stats whichever encodings the two sides use.
	want := runTool(t, "tracediff", "-stats-only", textTrace, xformText)
	for _, pair := range [][2]string{{binTrace, xformBin}, {textTrace, xformBin}, {binTrace, xformText}} {
		if got := runTool(t, "tracediff", "-stats-only", pair[0], pair[1]); got != want {
			t.Errorf("tracediff(%s, %s) differs from all-text run", filepath.Base(pair[0]), filepath.Base(pair[1]))
		}
	}

	// dinero agrees on the transformed trace too.
	simText := runTool(t, "dinero", "-l1-size", "32k", "-l1-assoc", "1", xformText)
	simBin := runTool(t, "dinero", "-l1-size", "32k", "-l1-assoc", "1", xformBin)
	if simText != simBin {
		t.Errorf("dinero reports differ between text and binary transformed traces")
	}

	// glcheck validates the binary container.
	if out := runTool(t, "glcheck", binTrace); !strings.Contains(out, "ok:") {
		t.Errorf("glcheck on binary trace:\n%s", out)
	}
}

func TestCLIErrorPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	bin := buildTools(t)
	cases := [][]string{
		{"gltrace", "-w", "nonexistent"},
		{"gltrace"},
		{"dinero", "-l1-size", "100", "does-not-exist.trc"},
		{"dsxform", "-rules", "missing.rule", "missing.trc"},
		{"tracediff", "one-arg-only"},
		{"experiments"},
	}
	for _, c := range cases {
		cmd := exec.Command(filepath.Join(bin, c[0]), c[1:]...)
		if out, err := cmd.CombinedOutput(); err == nil {
			t.Errorf("%v unexpectedly succeeded:\n%s", c, out)
		}
	}
}

// TestCLIExperimentsRemovedStoreFlags: removed flags are unknown flags, a
// usage error (exit 2). -checkpoint is the one store flag, so -resume and
// -simcache are gone; -sample-sets went with set sampling.
func TestCLIExperimentsRemovedStoreFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	bin := buildTools(t)
	for _, tc := range []struct {
		tool, flag string
		args       []string
	}{
		{"experiments", "-resume", []string{"-sweep", "-resume", t.TempDir()}},
		{"experiments", "-simcache", []string{"-sweep", "-simcache", t.TempDir()}},
		{"experiments", "-sample-sets", []string{"-sweep", "-sample-sets", "4"}},
		{"dinero", "-sample-sets", []string{"-sample-sets", "4", "trace.out"}},
	} {
		out, err := exec.Command(filepath.Join(bin, tc.tool), tc.args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s %s: err = %v, want exit status 2\n%s", tc.tool, tc.flag, err, out)
		}
		if !strings.Contains(string(out), "flag provided but not defined: "+tc.flag) {
			t.Errorf("%s %s: no unknown-flag message:\n%s", tc.tool, tc.flag, out)
		}
	}
}

// TestExamplesRun smoke-tests every example main via "go run".
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 5 {
		t.Fatalf("expected at least 5 examples, found %d", len(entries))
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command("go", "run", "./examples/"+name)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("example %s: %v\n%s", name, err, out)
			}
			if len(out) == 0 {
				t.Errorf("example %s produced no output", name)
			}
		})
	}
}
