package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tracedst/internal/simcache"
	"tracedst/internal/telemetry"
	"tracedst/internal/trace"
)

// restart drains srv and starts a fresh server on the same state
// directory, closed when the test ends.
func restart(t *testing.T, srv *Server, ts *httptest.Server, mut func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()
	cfg := Config{StateDir: srv.cfg.StateDir, RatePerSec: -1, Reg: telemetry.NewRegistry()}
	if mut != nil {
		mut(&cfg)
	}
	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv2.Shutdown(ctx)
		ts2.Close()
	})
	return srv2, ts2
}

// filesHolding counts the files under dir whose bytes contain report as
// a JSON string body — the form a stored report takes.
func filesHolding(t *testing.T, dir, report string) int {
	t.Helper()
	quoted, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	body := quoted[1 : len(quoted)-1]
	n := 0
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if bytes.Contains(data, body) {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestDoneJobStoredOnce: a done job's persisted record holds its result
// key and no report text, each report lives in exactly one file under the
// state directory however many jobs it answered, and a server restarted
// on the directory serves every done job's report byte for byte — fresh
// and cached jobs, text and indexed .glb uploads.
func TestDoneJobStoredOnce(t *testing.T) {
	srv, ts, _ := newTestServer(t, nil)
	uploads := [][]byte{
		encodeText(t, &trace.Header{PID: 7}, workloadRecords(2000)),
		encodeIndexedGLB(t, workloadRecords(1500), 64),
	}
	want := map[string]string{}
	for _, u := range uploads {
		var report string
		for i, cached := range []bool{false, true} {
			v := submit(t, ts.URL, "?wait=1", u)
			if v.State != StateDone || v.Cached != cached {
				t.Fatalf("upload %d: %s cached=%t (%s)", i, v.State, v.Cached, v.Error)
			}
			want[v.ID] = fetchReport(t, ts.URL, v.ID)
			report = want[v.ID]
		}
		if n := filesHolding(t, srv.cfg.StateDir, report); n != 1 {
			t.Errorf("a report is held by %d files under the state directory, want 1", n)
		}
	}
	for id := range want {
		rec, ok, err := simcache.Record[Job](srv.store, jobNS, id)
		if err != nil || !ok {
			t.Fatalf("job %s: record missing (ok=%v, err=%v)", id, ok, err)
		}
		if rec.Result == nil || rec.Report != "" {
			t.Errorf("job %s: record has result %v and %d bytes of report, want a key and none", id, rec.Result, len(rec.Report))
		}
		// The key is the record's pointer; the job's API view leaves it out.
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		view, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || bytes.Contains(view, []byte(`"result"`)) {
			t.Errorf("job %s: view (err %v) shows the result key:\n%s", id, err, view)
		}
	}

	_, ts2 := restart(t, srv, ts, nil)
	for id, report := range want {
		if v := getJob(t, ts2.URL, id); v.State != StateDone {
			t.Fatalf("job %s adopted as %s (%s)", id, v.State, v.Error)
		}
		if got := fetchReport(t, ts2.URL, id); got != report {
			t.Errorf("job %s: report after restart differs:\n--- want ---\n%s\n--- got ---\n%s", id, report, got)
		}
	}
}

// TestRestartLostResultFailsJob: a done job whose stored result is gone
// when the server restarts is adopted as failed, with a reason, rather
// than served without a report.
func TestRestartLostResultFailsJob(t *testing.T) {
	srv, ts, _ := newTestServer(t, nil)
	v := submit(t, ts.URL, "?wait=1", encodeGLB(t, workloadRecords(500), 64))
	if v.State != StateDone {
		t.Fatalf("job ended %s: %s", v.State, v.Error)
	}
	results, err := filepath.Glob(filepath.Join(srv.cfg.StateDir, "store", "sim", "*.json"))
	if err != nil || len(results) != 1 {
		t.Fatalf("stored results %v (err %v), want one", results, err)
	}
	if err := os.Remove(results[0]); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := restart(t, srv, ts, nil)
	got := getJob(t, ts2.URL, v.ID)
	if got.State != StateFailed || got.Error != "stored result lost across restart" {
		t.Fatalf("job adopted as %s (%q), want failed with the lost-result reason", got.State, got.Error)
	}
	resp, err := http.Get(ts2.URL + "/jobs/" + v.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("report of the failed job: status %d, want 409", resp.StatusCode)
	}
	rec, ok, err := simcache.Record[Job](srv2.store, jobNS, v.ID)
	if err != nil || !ok || rec.State != StateFailed || rec.Result != nil {
		t.Errorf("persisted record after adoption: %+v (ok=%v, err=%v), want failed with no result", rec, ok, err)
	}
}

// TestJobCountsFollowStates: the queued and running counts move with every
// state change — submit, start, done, failed, cancel while queued, cancel
// while running, drain revert and restart adoption — so after each step
// server.queue_depth, server.jobs_running and /readyz equal a walk over
// all jobs. One throttled worker holds each long job in flight, so every
// check runs while no job is changing state.
func TestJobCountsFollowStates(t *testing.T) {
	throttled := func(c *Config) {
		c.Workers = 1
		c.Throttle = 20 * time.Millisecond
	}
	srv, ts, _ := newTestServer(t, throttled)
	long := encodeGLB(t, workloadRecords(4000), 16) // 250 batches: 5 s
	short := encodeGLB(t, workloadRecords(100), 64)

	check := func(step string, srv *Server, ts *httptest.Server, wantQueued, wantRunning int64) {
		t.Helper()
		var queued, running int64
		srv.mu.Lock()
		for _, j := range srv.jobs {
			j.mu.Lock()
			switch j.State {
			case StateQueued:
				queued++
			case StateRunning:
				running++
			}
			j.mu.Unlock()
		}
		srv.mu.Unlock()
		if queued != wantQueued || running != wantRunning {
			t.Fatalf("%s: walk finds %d queued, %d running; the test expects %d, %d", step, queued, running, wantQueued, wantRunning)
		}
		if q, r := srv.reg.Gauge("server.queue_depth").Value(), srv.reg.Gauge("server.jobs_running").Value(); q != queued || r != running {
			t.Errorf("%s: gauges %d queued, %d running; walk %d, %d", step, q, r, queued, running)
		}
		if srv.isDraining() {
			return // /readyz answers 503 while draining
		}
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ready map[string]int64
		if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
			t.Fatal(err)
		}
		if ready["queued"] != queued || ready["running"] != running {
			t.Errorf("%s: /readyz %v; walk %d queued, %d running", step, ready, queued, running)
		}
	}
	cancel := func(ts *httptest.Server, id string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel %s: status %d", id, resp.StatusCode)
		}
	}

	a := submit(t, ts.URL, "", long)
	waitState(t, ts.URL, a.ID, StateRunning)
	check("start", srv, ts, 0, 1)
	b := submit(t, ts.URL, "", long)
	check("submit", srv, ts, 1, 1)
	cancel(ts, b.ID)
	waitState(t, ts.URL, b.ID, StateCanceled)
	check("cancel while queued", srv, ts, 0, 1)
	cancel(ts, a.ID)
	waitState(t, ts.URL, a.ID, StateCanceled)
	check("cancel while running", srv, ts, 0, 0)
	if v := submit(t, ts.URL, "?wait=1", short); v.State != StateDone {
		t.Fatalf("short job ended %s: %s", v.State, v.Error)
	}
	check("done", srv, ts, 0, 0)
	if v := submit(t, ts.URL, "?wait=1", []byte("this is not a trace\n")); v.State != StateFailed {
		t.Fatalf("garbage upload ended %s", v.State)
	}
	check("failed", srv, ts, 0, 0)

	e := submit(t, ts.URL, "", long)
	waitState(t, ts.URL, e.ID, StateRunning)
	submit(t, ts.URL, "", long)
	check("submit behind a running job", srv, ts, 1, 1)
	ctx, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	check("drain revert", srv, ts, 2, 0)

	srv2, ts2 := restart(t, srv, ts, throttled)
	waitState(t, ts2.URL, e.ID, StateRunning)
	check("restart adoption", srv2, ts2, 1, 1)
}
