// End-to-end observability tests: run the real binaries with -metrics-out
// and -log-format=json and assert the manifest invariants the telemetry
// layer promises — lossless runs simulate every decoded record, resumed
// runs reuse checkpointed work, and the JSON log sink emits one parseable
// object per line.
package tracedst_test

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// manifest mirrors the fields of the telemetry metrics manifest that the
// tests assert on.
type manifest struct {
	Schema   int              `json:"schema"`
	Tool     string           `json:"tool"`
	WallNS   int64            `json:"wall_ns"`
	Counters map[string]int64 `json:"counters"`
	Gauges   map[string]int64 `json:"gauges"`
	Spans    map[string]struct {
		Count  int64 `json:"count"`
		WallNS int64 `json:"wall_ns"`
	} `json:"spans"`
}

func readManifest(t *testing.T, path string) manifest {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest %s does not parse: %v\n%s", path, err, data)
	}
	if m.Schema != 1 {
		t.Errorf("manifest schema = %d, want 1", m.Schema)
	}
	return m
}

// runToolStderr runs a tool like runTool but also returns stderr instead
// of requiring it to be empty.
func runToolStderr(t *testing.T, name string, args ...string) (string, string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildTools(t), name), args...)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstdout:\n%s\nstderr:\n%s", name, args, err, stdout.String(), stderr.String())
	}
	return stdout.String(), stderr.String()
}

// TestCLIMetricsLossless checks the pipeline's conservation law: on a
// clean run every record the decoder produced is simulated (or explicitly
// counted as ignored) — nothing is dropped silently.
func TestCLIMetricsLossless(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "t.out")
	metrics := filepath.Join(dir, "metrics.json")
	runTool(t, "gltrace", "-w", "trans1-soa", "-o", traceFile)
	runTool(t, "dinero", "-metrics-out", metrics, traceFile)

	m := readManifest(t, metrics)
	if m.Tool != "dinero" {
		t.Errorf("tool = %q, want dinero", m.Tool)
	}
	decoded := m.Counters["trace.decode.records"]
	simulated := m.Counters["dinero.records_simulated"]
	ignored := m.Counters["dinero.records_ignored"]
	if decoded == 0 {
		t.Fatalf("trace.decode.records = 0; counters: %v", m.Counters)
	}
	if decoded != simulated+ignored {
		t.Errorf("lossless run: decoded %d != simulated %d + ignored %d",
			decoded, simulated, ignored)
	}
	if m.Counters["dinero.sims"] != 1 {
		t.Errorf("dinero.sims = %d, want 1", m.Counters["dinero.sims"])
	}
	// One streaming pass: the CLI span encloses the decode stream and the
	// engine's simulate span.
	for _, span := range []string{"dinero/simulate", "trace.decode.stream", "dinero.simulate"} {
		if m.Spans[span].Count != 1 {
			t.Errorf("span %q count = %d, want 1", span, m.Spans[span].Count)
		}
	}
}

// TestCLIExperimentsMetricsResume checks the batch-runner metrics: a fresh
// sweep with a store persists every task and simulates every record it
// decodes, on one worker when -parallel is below 1; a rerun on the same
// -checkpoint directory answers every point from the store instead of
// re-simulating.
func TestCLIExperimentsMetricsResume(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	ck := filepath.Join(dir, "ck")
	m1Path := filepath.Join(dir, "m1.json")
	m2Path := filepath.Join(dir, "m2.json")

	runTool(t, "experiments", "-sweep", "-parallel", "0", "-checkpoint", ck, "-metrics-out", m1Path)
	m1 := readManifest(t, m1Path)
	if m1.Tool != "experiments" {
		t.Errorf("tool = %q, want experiments", m1.Tool)
	}
	if got, want := m1.Counters["experiments.tasks"], m1.Counters["experiments.tasks_ok"]; got != want || got == 0 {
		t.Errorf("tasks = %d, tasks_ok = %d; want equal and nonzero", got, want)
	}
	if m1.Counters["experiments.records_in"] == 0 ||
		m1.Counters["experiments.records_in"] != m1.Counters["dinero.records_simulated"] {
		t.Errorf("records_in = %d, records_simulated = %d; want equal and nonzero",
			m1.Counters["experiments.records_in"], m1.Counters["dinero.records_simulated"])
	}
	// Sweep tasks are side-level but store one result per cache size, so
	// puts is at least one per task and strictly more for the sweep tasks.
	if puts, tasks := m1.Counters["simcache.puts"], m1.Counters["experiments.tasks"]; puts < tasks || puts == 0 {
		t.Errorf("simcache.puts = %d, want >= %d (at least one per task)", puts, tasks)
	}
	if m1.Counters["simcache.hits"] != 0 {
		t.Errorf("fresh run simcache.hits = %d, want 0", m1.Counters["simcache.hits"])
	}
	if m1.Gauges["experiments.workers"] != 1 {
		t.Errorf("-parallel 0: workers gauge = %d, want 1", m1.Gauges["experiments.workers"])
	}

	runTool(t, "experiments", "-sweep", "-checkpoint", ck, "-metrics-out", m2Path)
	m2 := readManifest(t, m2Path)
	if m2.Counters["simcache.hits"] == 0 {
		t.Errorf("resumed run simcache.hits = 0; counters: %v", m2.Counters)
	}
	if m2.Counters["simcache.misses"] != 0 {
		t.Errorf("resumed run simcache.misses = %d, want 0", m2.Counters["simcache.misses"])
	}
	if m2.Counters["dinero.sims"] != 0 {
		t.Errorf("resumed run re-simulated %d times, want 0", m2.Counters["dinero.sims"])
	}
}

// TestCLIJSONLogs checks the machine-readable sink: with -log-format=json
// every stderr line is a JSON object carrying the tool attribute —
// including lenient-decode skip warnings.
func TestCLIJSONLogs(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "t.out")
	runTool(t, "gltrace", "-w", "trans1-soa", "-o", traceFile)

	// Corrupt one line mid-trace so the lenient decoder has something to
	// report.
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 4 {
		t.Fatalf("trace too short: %d lines", len(lines))
	}
	lines[2] = "THIS IS NOT A TRACE LINE\n"
	bad := filepath.Join(dir, "bad.out")
	if err := os.WriteFile(bad, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	metrics := filepath.Join(dir, "m.json")
	_, stderr := runToolStderr(t, "dinero",
		"-log-format=json", "-lenient", "-metrics-out", metrics, bad)

	var sawSkip bool
	sc := bufio.NewScanner(strings.NewReader(stderr))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev struct {
			Tool string `json:"tool"`
			Msg  string `json:"msg"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("stderr line is not JSON: %q (%v)", line, err)
		}
		if ev.Tool != "dinero" {
			t.Errorf("event tool = %q, want dinero: %s", ev.Tool, line)
		}
		if strings.Contains(ev.Msg, "skipping line") {
			sawSkip = true
		}
	}
	if !sawSkip {
		t.Errorf("no skipping-line event in stderr:\n%s", stderr)
	}
	m := readManifest(t, metrics)
	if m.Counters["trace.decode.bad_lines"] != 1 {
		t.Errorf("trace.decode.bad_lines = %d, want 1", m.Counters["trace.decode.bad_lines"])
	}
	if m.Counters["trace.decode.bad_lines.parse"] != 1 {
		t.Errorf("trace.decode.bad_lines.parse = %d, want 1", m.Counters["trace.decode.bad_lines.parse"])
	}
}

// TestCLIMetricsStdout checks that -metrics-out - streams the manifest to
// stdout after the report.
func TestCLIMetricsStdout(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "t.out")
	runTool(t, "gltrace", "-w", "trans1-soa", "-o", traceFile)
	out := runTool(t, "glprof", "-metrics-out", "-", traceFile)
	i := strings.Index(out, `{
  "schema": 1,`)
	if i < 0 {
		t.Fatalf("no manifest on stdout:\n%.400s", out)
	}
	var m manifest
	if err := json.Unmarshal([]byte(out[i:]), &m); err != nil {
		t.Fatalf("stdout manifest does not parse: %v", err)
	}
	if m.Tool != "glprof" {
		t.Errorf("tool = %q, want glprof", m.Tool)
	}
}

// TestCLITraceExport: -trace-out writes a JSONL span export whose lines
// form one tree — a single trace ID, a root span named after the tool,
// every other span reachable through in-export parents.
func TestCLITraceExport(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "t.out")
	spansFile := filepath.Join(dir, "spans.jsonl")
	runTool(t, "gltrace", "-w", "trans1-soa", "-o", traceFile)
	runTool(t, "dinero", "-trace-out", spansFile, traceFile)

	type spanEvent struct {
		Trace   string            `json:"trace"`
		Span    string            `json:"span"`
		Parent  string            `json:"parent"`
		Name    string            `json:"name"`
		StartNS int64             `json:"start_unix_ns"`
		EndNS   int64             `json:"end_unix_ns"`
		Attrs   map[string]string `json:"attrs"`
	}
	f, err := os.Open(spansFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var events []spanEvent
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var ev spanEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("span line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 {
		t.Fatalf("only %d spans exported", len(events))
	}

	byName := map[string]spanEvent{}
	ids := map[string]bool{}
	trace := events[0].Trace
	for _, ev := range events {
		if ev.Trace != trace {
			t.Fatalf("spans carry two trace IDs: %s and %s", trace, ev.Trace)
		}
		if ev.EndNS < ev.StartNS {
			t.Fatalf("span %s ends before it starts", ev.Name)
		}
		byName[ev.Name] = ev
		ids[ev.Span] = true
	}
	root, ok := byName["dinero"]
	if !ok || root.Parent != "" {
		t.Fatalf("no parentless root span named dinero (have %+v)", byName)
	}
	for _, want := range []string{"dinero/simulate", "trace.decode.stream", "dinero.simulate"} {
		ev, ok := byName[want]
		if !ok {
			t.Fatalf("no %s span in export", want)
		}
		if !ids[ev.Parent] {
			t.Fatalf("span %s has parent %q outside the export", want, ev.Parent)
		}
	}
	if byName["dinero.simulate"].Attrs["records"] == "" {
		t.Error("dinero.simulate span lost its records attr")
	}
}
