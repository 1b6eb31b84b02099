package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tracedst/internal/cache"
	"tracedst/internal/simcache"
	"tracedst/internal/telemetry"
)

// TestDrainRestartResume is the acceptance test for graceful drain: a
// server with one job running and one queued is drained mid-job; both
// jobs must be persisted as queued, and a restarted server on the same
// state directory must run them to completion with reports
// byte-identical to an uninterrupted run.
func TestDrainRestartResume(t *testing.T) {
	dir := t.TempDir()
	recs := workloadRecords(4000)
	glb := encodeGLB(t, recs, 32) // 125 batches
	want := refReport(t, recs, cache.Paper32KDirect())

	srv, err := New(Config{
		StateDir:   dir,
		Workers:    1,
		RatePerSec: -1,
		Reg:        telemetry.NewRegistry(),
		Throttle:   20 * time.Millisecond, // job takes ~2.5s: drain catches it mid-run
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	running := submit(t, ts.URL, "", glb)
	queued := submit(t, ts.URL, "", glb)
	waitState(t, ts.URL, running.ID, StateRunning)
	// Give the running job time to make real progress before the drain,
	// so the test exercises an interruption with partial work to discard.
	deadline := time.Now().Add(5 * time.Second)
	for getJob(t, ts.URL, running.ID).Progress == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	cancel()
	ts.Close()

	// The second process: same state dir, no artificial slowness.
	srv2, err := New(Config{StateDir: dir, Workers: 2, RatePerSec: -1, Reg: telemetry.NewRegistry()})
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

	for _, id := range []string{running.ID, queued.ID} {
		v := getJob(t, ts2.URL, id)
		if !v.Resumed {
			t.Errorf("%s not marked resumed after restart", id)
		}
		done := waitState(t, ts2.URL, id, StateDone)
		if done.Records != int64(len(recs)) {
			t.Errorf("%s resumed run simulated %d records, want %d", id, done.Records, len(recs))
		}
		if got := fetchReport(t, ts2.URL, id); got != want {
			t.Errorf("%s: resumed report differs from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s",
				id, want, got)
		}
	}
}

// TestDrainPersistsQueuedState: after Shutdown, the store on disk holds
// every unfinished job as queued — nothing is lost, nothing is left
// marked running.
func TestDrainPersistsQueuedState(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{
		StateDir:   dir,
		Workers:    1,
		RatePerSec: -1,
		Reg:        telemetry.NewRegistry(),
		Throttle:   20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	glb := encodeGLB(t, workloadRecords(4000), 32)
	a := submit(t, ts.URL, "", glb)
	b := submit(t, ts.URL, "", glb)
	waitState(t, ts.URL, a.ID, StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()

	// Read the persisted state straight from the store: a restarted
	// server's worker may pick a resumed job up at once, so its in-memory
	// state would race with this check.
	store, err := simcache.Open(filepath.Join(dir, "store"), telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{a.ID, b.ID} {
		rec, ok, err := simcache.Record[Job](store, jobNS, id)
		if err != nil || !ok {
			t.Fatalf("job %s lost across drain (ok=%v, err=%v)", id, ok, err)
		}
		if rec.State != StateQueued {
			t.Errorf("job %s persisted as state=%s, want queued", id, rec.State)
		}
	}

	// A fresh process adopts both as resumed.
	reg2 := telemetry.NewRegistry()
	srv2, err := New(Config{StateDir: dir, Workers: 1, RatePerSec: -1, Reg: reg2})
	if err != nil {
		t.Fatal(err)
	}
	if n := reg2.Counter("server.jobs_resumed").Value(); n != 2 {
		t.Errorf("server.jobs_resumed = %d, want 2", n)
	}
	for _, id := range []string{a.ID, b.ID} {
		j := srv2.lookup(id)
		if j == nil {
			t.Fatalf("job %s lost across restart", id)
		}
		j.mu.Lock()
		resumed := j.Resumed
		j.mu.Unlock()
		if !resumed {
			t.Errorf("job %s not marked resumed after restart", id)
		}
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	srv2.Shutdown(ctx2)
}

// TestPersistKeepsLatestState: the upload handler and the worker both
// persist a job, and a snapshot the handler took before the worker ran
// must not land after the worker's terminal write — a restart would then
// re-run a finished job. Here one goroutine persists a job over and over
// while another drives it to done; the record on disk must end at done.
func TestPersistKeepsLatestState(t *testing.T) {
	srv, err := New(Config{StateDir: t.TempDir(), Workers: 1, RatePerSec: -1, Reg: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	for round := 0; round < 50; round++ {
		j := &job{Job: Job{ID: fmt.Sprintf("j%06d", round+1), State: StateQueued}}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					srv.persist(j)
				}
			}
		}()
		for _, st := range []JobState{StateRunning, StateDone} {
			j.mu.Lock()
			j.State = st
			j.mu.Unlock()
			srv.persist(j)
		}
		close(stop)
		wg.Wait()
		rec, ok, err := simcache.Record[Job](srv.store, jobNS, j.ID)
		if err != nil || !ok {
			t.Fatalf("round %d: record missing (ok=%v, err=%v)", round, ok, err)
		}
		if rec.State != StateDone {
			t.Fatalf("round %d: record holds %s after the job finished", round, rec.State)
		}
	}
}
