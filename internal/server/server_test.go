package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tracedst/internal/cache"
	"tracedst/internal/ctype"
	"tracedst/internal/dinero"
	"tracedst/internal/telemetry"
	"tracedst/internal/trace"
)

// workloadRecords builds a deterministic access pattern big enough to
// span many binary blocks (so jobs progress batch by batch).
func workloadRecords(n int) []trace.Record {
	recs := make([]trace.Record, 0, n)
	for i := 0; i < n; i++ {
		op := trace.Load
		if i%3 == 0 {
			op = trace.Store
		}
		recs = append(recs, trace.Record{
			Op:   op,
			Addr: 0x10000 + uint64(i%257)*64,
			Size: 4,
			Site: trace.NewSite("work", ctype.AccessExpr{}),
		})
	}
	return recs
}

// encodeGLB renders records as a .glb stream, blockRecs records per
// block (each block is one streaming batch on the server).
func encodeGLB(t *testing.T, recs []trace.Record, blockRecs int) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := trace.NewBinaryWriter(&buf)
	bw.SetBlockRecords(blockRecs)
	if err := bw.WriteHeader(trace.Header{PID: 7}); err != nil {
		t.Fatal(err)
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

// refReport simulates recs directly — the byte-identical oracle for what
// a done job's report must say.
func refReport(t *testing.T, recs []trace.Record, cfg cache.Config) string {
	t.Helper()
	sim, err := dinero.New(dinero.Options{L1: cfg})
	if err != nil {
		t.Fatal(err)
	}
	sim.Process(recs)
	return sim.Report()
}

// newTestServer starts a Server (rate limiting off unless the mutator
// turns it on) plus an httptest front end, both torn down with the test.
func newTestServer(t testing.TB, mut func(*Config)) (*Server, *httptest.Server, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	cfg := Config{
		StateDir:   t.TempDir(),
		RatePerSec: -1, // tests opt in explicitly
		Reg:        reg,
	}
	if mut != nil {
		mut(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		ts.Close()
	})
	return srv, ts, reg
}

// submit POSTs body and decodes the accepted job view.
func submit(t *testing.T, base, query string, body []byte) jobView {
	t.Helper()
	resp, err := http.Post(base+"/jobs"+query, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, raw)
	}
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// getJob fetches /jobs/{id}.
func getJob(t *testing.T, base, id string) jobView {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get %s: status %d", id, resp.StatusCode)
	}
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitState polls until the job reaches want (fatal on a different
// terminal state or timeout).
func waitState(t *testing.T, base, id string, want JobState) jobView {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		v := getJob(t, base, id)
		if v.State == want {
			return v
		}
		if v.State.terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, v.State, v.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %s", id, v.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func fetchReport(t *testing.T, base, id string) string {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report %s: status %d", id, resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestJobLifecycle: upload → queued/running → done, with the report
// byte-identical to a direct simulation of the same records.
func TestJobLifecycle(t *testing.T) {
	_, ts, reg := newTestServer(t, nil)
	recs := workloadRecords(2000)
	glb := encodeGLB(t, recs, 64)

	v := submit(t, ts.URL, "", glb)
	if v.ID == "" || v.Format != "binary" || v.Bytes != int64(len(glb)) {
		t.Fatalf("accepted view %+v", v)
	}
	done := waitState(t, ts.URL, v.ID, StateDone)
	if done.Records != int64(len(recs)) {
		t.Errorf("job simulated %d records, want %d", done.Records, len(recs))
	}
	if done.Progress != int64(len(recs)) {
		t.Errorf("done job progress %d, want %d", done.Progress, len(recs))
	}
	got := fetchReport(t, ts.URL, v.ID)
	if want := refReport(t, recs, cache.Paper32KDirect()); got != want {
		t.Errorf("report diverges from direct simulation:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	if n := reg.Counter("server.uploads").Value(); n != 1 {
		t.Errorf("server.uploads = %d, want 1", n)
	}
	if n := reg.Counter("server.jobs_done").Value(); n != 1 {
		t.Errorf("server.jobs_done = %d, want 1", n)
	}

	// Text uploads take the same path through the sniffer.
	var text bytes.Buffer
	tw := trace.NewWriter(&text)
	if err := tw.WriteHeader(trace.Header{PID: 7}); err != nil {
		t.Fatal(err)
	}
	for i := range recs[:100] {
		if err := tw.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	v2 := submit(t, ts.URL, "", text.Bytes())
	if v2.Format != "text" {
		t.Errorf("text upload sniffed as %q", v2.Format)
	}
	waitState(t, ts.URL, v2.ID, StateDone)
}

// TestSubmitWait: ?wait=1 blocks until the job is terminal.
func TestSubmitWait(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	glb := encodeGLB(t, workloadRecords(500), 64)
	v := submit(t, ts.URL, "?wait=1", glb)
	if v.State != StateDone {
		t.Fatalf("wait=1 returned state %s, want done", v.State)
	}
}

// TestSubmitConfigAndRule: per-job cache geometry and transformation
// rule override the server defaults; bad ones are rejected up front.
func TestSubmitConfigAndRule(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	recs := workloadRecords(800)
	glb := encodeGLB(t, recs, 64)

	v := submit(t, ts.URL, "?wait=1&config=size%3D1k%2Cassoc%3D2", glb)
	if v.State != StateDone {
		t.Fatalf("config job ended %s: %s", v.State, v.Error)
	}
	cfg := cache.Paper32KDirect()
	cfg.Size = 1024
	cfg.Assoc = 2
	if got := fetchReport(t, ts.URL, v.ID); got == refReport(t, recs, cache.Paper32KDirect()) {
		t.Error("config override had no effect on the report")
	} else if want := refReport(t, recs, cfg); got != want {
		t.Errorf("config job report:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}

	for _, q := range []string{"?config=size%3Dbanana", "?rule=split%20nonsense"} {
		resp, err := http.Post(ts.URL+"/jobs"+q, "application/octet-stream", bytes.NewReader(glb))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestInvalidTraceFailsJob: an upload that decodes as garbage fails the
// job (not the server) with a diagnosable error.
func TestInvalidTraceFailsJob(t *testing.T) {
	_, ts, reg := newTestServer(t, nil)
	v := submit(t, ts.URL, "?wait=1", []byte("this is not a trace\nnot even close\n"))
	if v.State != StateFailed {
		t.Fatalf("garbage upload ended %s, want failed", v.State)
	}
	if !strings.Contains(v.Error, "validation") {
		t.Errorf("failure reason %q does not mention validation", v.Error)
	}
	if n := reg.Counter("server.jobs_failed").Value(); n != 1 {
		t.Errorf("server.jobs_failed = %d, want 1", n)
	}
}

// TestCancelRunningJob: DELETE on a running job cancels it promptly.
func TestCancelRunningJob(t *testing.T) {
	_, ts, _ := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.Throttle = 25 * time.Millisecond
	})
	glb := encodeGLB(t, workloadRecords(5000), 16) // many batches: long job
	v := submit(t, ts.URL, "", glb)
	waitState(t, ts.URL, v.ID, StateRunning)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	got := waitState(t, ts.URL, v.ID, StateCanceled)
	if got.Report != "" {
		t.Error("canceled job has a report")
	}

	// A second DELETE is a conflict: the job is already terminal.
	resp2, err := http.DefaultClient.Do(req.Clone(req.Context()))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Errorf("re-cancel: status %d, want 409", resp2.StatusCode)
	}
}

// TestListAndEndpoints: /jobs lists submissions in order; /healthz,
// /readyz and /metrics respond with their documented shapes.
func TestListAndEndpoints(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	glb := encodeGLB(t, workloadRecords(200), 64)
	a := submit(t, ts.URL, "?wait=1", glb)
	b := submit(t, ts.URL, "?wait=1", glb)

	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []jobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 2 || list.Jobs[0].ID != a.ID || list.Jobs[1].ID != b.ID {
		t.Fatalf("list = %+v, want [%s %s]", list.Jobs, a.ID, b.ID)
	}

	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", ep, resp.StatusCode)
		}
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var man telemetry.Manifest
	if err := json.NewDecoder(mresp.Body).Decode(&man); err != nil {
		t.Fatal(err)
	}
	if man.Schema != telemetry.ManifestSchema || man.Tool != "tracedstd" {
		t.Errorf("manifest schema/tool = %d/%q", man.Schema, man.Tool)
	}
	if man.Counters["server.uploads"] != 2 {
		t.Errorf("manifest server.uploads = %d, want 2", man.Counters["server.uploads"])
	}

	if resp, err := http.Get(ts.URL + "/jobs/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("missing job: status %d, want 404", resp.StatusCode)
		}
	}
}

// TestSSEEvents: the event stream reports state transitions and closes
// on the terminal state; a queued (quiet) job gets heartbeats.
func TestSSEEvents(t *testing.T) {
	_, ts, reg := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.Heartbeat = 80 * time.Millisecond
		c.Throttle = 15 * time.Millisecond
	})
	long := encodeGLB(t, workloadRecords(3000), 64) // ~47 batches ≈ 700ms
	running := submit(t, ts.URL, "", long)
	queued := submit(t, ts.URL, "", long) // parked behind it: quiet stream

	// The queued job's stream must heartbeat while nothing changes.
	qresp, err := http.Get(ts.URL + "/jobs/" + queued.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	var qstream strings.Builder
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !strings.Contains(qstream.String(), ": heartbeat") {
		n, rerr := qresp.Body.Read(buf)
		qstream.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	qresp.Body.Close()
	if !strings.Contains(qstream.String(), ": heartbeat") {
		t.Errorf("no heartbeat on a quiet stream:\n%s", qstream.String())
	}
	if reg.Counter("server.sse_heartbeats").Value() == 0 {
		t.Error("heartbeat counter never incremented")
	}

	// The running job's stream ends at the terminal state.
	resp, err := http.Get(ts.URL + "/jobs/" + running.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body) // server closes at terminal state
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	stream := string(raw)
	if !strings.Contains(stream, "event: state") {
		t.Fatalf("no state events in stream:\n%s", stream)
	}
	if !strings.Contains(stream, `"state":"done"`) {
		t.Errorf("stream did not end with a done event:\n%s", stream)
	}
	waitState(t, ts.URL, queued.ID, StateDone)
}

// TestReportConflictBeforeDone: the report endpoint refuses until done.
func TestReportConflictBeforeDone(t *testing.T) {
	_, ts, _ := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.Throttle = 25 * time.Millisecond
	})
	glb := encodeGLB(t, workloadRecords(3000), 16)
	v := submit(t, ts.URL, "", glb)
	resp, err := http.Get(ts.URL + "/jobs/" + v.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("report before done: status %d, want 409", resp.StatusCode)
	}
}

// TestSequentialIDsSurviveRestart: job numbering continues after a
// restart rather than colliding with persisted jobs.
func TestSequentialIDsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	srv, err := New(Config{StateDir: dir, RatePerSec: -1, Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	glb := encodeGLB(t, workloadRecords(100), 64)
	first := submit(t, ts.URL, "?wait=1", glb)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	srv.Shutdown(ctx)
	cancel()
	ts.Close()

	srv2, err := New(Config{StateDir: dir, RatePerSec: -1, Reg: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv2.Shutdown(ctx)
		ts2.Close()
	}()
	// The finished job is still visible, report intact.
	if got := getJob(t, ts2.URL, first.ID); got.State != StateDone {
		t.Fatalf("restarted server reports %s as %s", first.ID, got.State)
	}
	second := submit(t, ts2.URL, "?wait=1", glb)
	if second.ID == first.ID {
		t.Fatalf("restart reused job ID %s", first.ID)
	}
	if fmt.Sprintf("j%06d", jobSeq(first.ID)+1) != second.ID {
		t.Errorf("IDs not sequential across restart: %s then %s", first.ID, second.ID)
	}
}
