package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"tracedst/internal/cache"
	"tracedst/internal/faultinject"
	"tracedst/internal/telemetry"
	"tracedst/internal/trace"
)

// encodeText renders records as a text trace, with a START line when h is
// non-nil.
func encodeText(t *testing.T, h *trace.Header, recs []trace.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	if h != nil {
		if err := tw.WriteHeader(*h); err != nil {
			t.Fatal(err)
		}
	}
	for i := range recs {
		if err := tw.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// validationOutcome is what a job on data must end with, by a standalone
// validation of the same bytes: the failure text, or "" and the warning
// count for a trace that passes.
func validationOutcome(t *testing.T, data []byte) (string, int) {
	t.Helper()
	rep, err := trace.Validate(bytes.NewReader(data), trace.ValidateOptions{SkipRegionChecks: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Diags {
		if d.Sev == trace.SevError {
			return fmt.Sprintf("trace failed validation: %d errors; first: %s", rep.Errors(), d), 0
		}
	}
	return "", rep.Warnings()
}

// TestOnePassMatchesValidate: a job validates its upload in the same pass
// that simulates it, and ends exactly as a standalone Validate of the
// bytes says — the same failure text, or done with the same warnings and
// the clean trace's report — for every fault class on both containers.
func TestOnePassMatchesValidate(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	recs := workloadRecords(3000)
	hdr := &trace.Header{PID: 7}
	text := encodeText(t, hdr, recs)
	indexed := encodeIndexedGLB(t, recs, 64)

	uploads := map[string][]byte{
		"text/clean":     text,
		"text/no-header": encodeText(t, nil, recs),
		"glb/clean":      indexed,
		"glb/flip":       faultinject.GLBFlipPayloadBit(indexed),
		"glb/flip-plain": faultinject.GLBFlipPayloadBit(encodeGLB(t, recs, 64)),
	}
	for _, c := range faultinject.Classes() {
		uploads["text/"+c.Name] = []byte(c.Apply(string(text), 3))
	}
	for _, c := range faultinject.GLBFooterClasses() {
		uploads["glb/"+c.Name] = c.Apply(append([]byte(nil), indexed...))
	}
	want := refReport(t, recs, cache.Paper32KDirect())
	for name, data := range uploads {
		t.Run(name, func(t *testing.T) {
			failure, warnings := validationOutcome(t, data)
			v := submit(t, ts.URL, "?wait=1", data)
			if failure != "" {
				if v.State != StateFailed || v.Error != failure {
					t.Fatalf("job ended %s (%q), want failed with %q", v.State, v.Error, failure)
				}
				return
			}
			if v.State != StateDone {
				t.Fatalf("job ended %s: %s", v.State, v.Error)
			}
			if v.Warnings != warnings {
				t.Errorf("job has %d warnings, Validate says %d", v.Warnings, warnings)
			}
			if got := fetchReport(t, ts.URL, v.ID); got != want {
				t.Errorf("report diverges from a direct run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
			}
		})
	}
}

// TestPayloadFlipMissesCache: the cache keys an upload by its bytes, so a
// copy with one payload bit flipped and the block's stored CRC intact
// misses the entry of the clean trace and fails exactly as it does on a
// server with no cache.
func TestPayloadFlipMissesCache(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	_, plain, _ := newTestServer(t, func(c *Config) { c.DisableSimCache = true })
	clean := encodeIndexedGLB(t, workloadRecords(2000), 64)
	flipped := faultinject.GLBFlipPayloadBit(clean)

	if v := submit(t, ts.URL, "?wait=1", clean); v.State != StateDone || v.Cached {
		t.Fatalf("clean upload: %s cached=%t", v.State, v.Cached)
	}
	if v := submit(t, ts.URL, "?wait=1", clean); v.State != StateDone || !v.Cached {
		t.Fatalf("clean re-upload: %s cached=%t, want a cache hit", v.State, v.Cached)
	}
	got := submit(t, ts.URL, "?wait=1", flipped)
	want := submit(t, plain.URL, "?wait=1", flipped)
	if got.Cached {
		t.Fatal("damaged upload answered from the clean trace's cache entry")
	}
	if want.State != StateFailed {
		t.Fatalf("uncached server: damaged upload ended %s", want.State)
	}
	if got.State != want.State || got.Error != want.Error {
		t.Errorf("damaged upload ended %s (%q), an uncached server says %s (%q)",
			got.State, got.Error, want.State, want.Error)
	}
	if got.TraceHash == "" || got.TraceHash == getJob(t, ts.URL, "j000001").TraceHash {
		t.Errorf("trace_hash %q does not tell the damaged upload from the clean one", got.TraceHash)
	}
}

// spoolGone fails the test unless job id's spooled upload was deleted
// once the job finished.
func spoolGone(t *testing.T, srv *Server, id string) {
	t.Helper()
	// A polled state shows before the worker's cleanup; done closes after.
	select {
	case <-srv.lookup(id).done:
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s never finished", id)
	}
	if _, err := os.Stat(srv.spoolPath(id)); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("job %s: spool file still present (stat err %v)", id, err)
	}
}

// TestSpoolRemovedWhenTerminal: a job's spooled upload is deleted once the
// job is done, failed or canceled — running or still queued — and when a
// cache hit answers it.
func TestSpoolRemovedWhenTerminal(t *testing.T) {
	srv, ts, _ := newTestServer(t, nil)
	glb := encodeGLB(t, workloadRecords(500), 64)
	done := submit(t, ts.URL, "?wait=1", glb)
	cached := submit(t, ts.URL, "?wait=1", glb)
	failed := submit(t, ts.URL, "?wait=1", []byte("not a trace\n"))
	if done.State != StateDone || !cached.Cached || failed.State != StateFailed {
		t.Fatalf("states %s, cached=%t, %s", done.State, cached.Cached, failed.State)
	}
	for _, id := range []string{done.ID, cached.ID, failed.ID} {
		spoolGone(t, srv, id)
	}

	slow, sts, _ := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.Throttle = 25 * time.Millisecond
	})
	long := encodeGLB(t, workloadRecords(5000), 16)
	running := submit(t, sts.URL, "", long)
	queued := submit(t, sts.URL, "", long)
	waitState(t, sts.URL, running.ID, StateRunning)
	if _, err := os.Stat(slow.spoolPath(queued.ID)); err != nil {
		t.Fatalf("queued job's spool missing: %v", err)
	}
	for _, id := range []string{queued.ID, running.ID} {
		req, _ := http.NewRequest(http.MethodDelete, sts.URL+"/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		waitState(t, sts.URL, id, StateCanceled)
		spoolGone(t, slow, id)
	}
}

// TestDrainKeepsSpool: a drain returns a running job to the queue with its
// spooled upload in place; the restarted server resumes it to the report
// of an uninterrupted run and only then deletes the upload.
func TestDrainKeepsSpool(t *testing.T) {
	dir := t.TempDir()
	recs := workloadRecords(4000)
	glb := encodeGLB(t, recs, 32)
	srv, err := New(Config{
		StateDir: dir, Workers: 1, RatePerSec: -1,
		Reg: telemetry.NewRegistry(), Throttle: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	v := submit(t, ts.URL, "", glb)
	waitState(t, ts.URL, v.ID, StateRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()
	if _, err := os.Stat(srv.spoolPath(v.ID)); err != nil {
		t.Fatalf("drained job's spool missing: %v", err)
	}

	srv2, err := New(Config{StateDir: dir, RatePerSec: -1, Reg: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer func() {
		srv2.Shutdown(ctx)
		ts2.Close()
	}()
	waitState(t, ts2.URL, v.ID, StateDone)
	if got, want := fetchReport(t, ts2.URL, v.ID), refReport(t, recs, cache.Paper32KDirect()); got != want {
		t.Errorf("resumed report differs from an uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	spoolGone(t, srv2, v.ID)
}
