// Process-level crash/drain recovery tests: SIGTERM real binaries
// mid-run and assert the restarted process produces byte-identical
// results — the end-to-end counterpart of the in-process checkpoint and
// drain tests.
package tracedst_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestShardedSweepKillResume: SIGTERM `experiments -sweep -shards 2`
// mid-run, then rerun on the same -checkpoint directory — the resumed
// run's sweep tables must be byte-identical to an uninterrupted run's.
func TestShardedSweepKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	bin := filepath.Join(buildTools(t), "experiments")
	args := []string{"-sweep", "-shards", "2", "-parallel", "1"}

	clean, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}

	ckpt := filepath.Join(t.TempDir(), "ck")
	cmd := exec.Command(bin, append(args, "-checkpoint", ckpt)...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill as soon as the first entry file lands on disk: mid-run by
	// construction (a full sweep run has eight side-level tasks). A
	// namespace directory may appear before any work is stored, so wait
	// for a file, not a directory entry.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if ents, err := filepath.Glob(filepath.Join(ckpt, "*", "*.json")); err == nil && len(ents) > 0 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("no checkpoint entries appeared within 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	if err == nil {
		// The run won the race and finished before the signal landed; the
		// resume below then merely replays the full store, which must
		// still be byte-identical.
		t.Log("run finished before SIGTERM; resume degenerates to a replay")
	} else if !strings.Contains(stderr.String(), "resume") {
		t.Fatalf("interrupted run gave no resume hint; stderr:\n%s", stderr.String())
	}

	resumed, err := exec.Command(bin, append(args, "-checkpoint", ckpt)...).Output()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !bytes.Equal(resumed, clean) {
		t.Errorf("resumed sweep output differs from uninterrupted run:\n--- clean ---\n%s\n--- resumed ---\n%s",
			clean, resumed)
	}
}

// freePort reserves an ephemeral localhost port and releases it for the
// server under test.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startTracedstd launches the server binary and waits for /healthz.
func startTracedstd(t *testing.T, addr, state string, extra ...string) *exec.Cmd {
	t.Helper()
	args := append([]string{"-addr", addr, "-state", state, "-workers", "1"}, extra...)
	cmd := exec.Command(filepath.Join(buildTools(t), "tracedstd"), args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd
			}
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("tracedstd did not become healthy within 15s")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// tracedstdJob is the slice of the job JSON these tests care about.
type tracedstdJob struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Error   string `json:"error"`
	Resumed bool   `json:"resumed"`
}

func postTrace(t *testing.T, addr string, data []byte) tracedstdJob {
	t.Helper()
	resp, err := http.Post("http://"+addr+"/jobs", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("upload: status %d: %s", resp.StatusCode, raw)
	}
	var j tracedstdJob
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return j
}

func waitJobDone(t *testing.T, addr, id string) tracedstdJob {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(fmt.Sprintf("http://%s/jobs/%s", addr, id))
		if err != nil {
			t.Fatal(err)
		}
		var j tracedstdJob
		derr := json.NewDecoder(resp.Body).Decode(&j)
		resp.Body.Close()
		if derr != nil {
			t.Fatal(derr)
		}
		switch j.State {
		case "done":
			return j
		case "failed", "canceled":
			t.Fatalf("job %s ended %s: %s", id, j.State, j.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, j.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func jobReport(t *testing.T, addr, id string) string {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/jobs/%s/report", addr, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestTracedstdKillResume: SIGTERM a tracedstd process with jobs in
// flight; a restart on the same state directory must resume them to
// reports byte-identical to an undisturbed server's.
func TestTracedstdKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "trace.out")
	runTool(t, "gltrace", "-w", "trans1-soa", "-o", traceFile)
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: an undisturbed server run of the same upload.
	refAddr := freePort(t)
	ref := startTracedstd(t, refAddr, filepath.Join(dir, "state-ref"))
	refJob := postTrace(t, refAddr, data)
	waitJobDone(t, refAddr, refJob.ID)
	want := jobReport(t, refAddr, refJob.ID)
	ref.Process.Signal(syscall.SIGTERM)
	ref.Wait()

	// Victim: two jobs in flight, killed immediately after submission.
	// The batch throttle guarantees neither job can finish before the
	// TERM lands, so the restart genuinely resumes rather than replays.
	addr := freePort(t)
	state := filepath.Join(dir, "state")
	srv := startTracedstd(t, addr, state, "-throttle", "200ms")
	a := postTrace(t, addr, data)
	b := postTrace(t, addr, data)
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := srv.Wait(); err != nil {
		t.Fatalf("tracedstd did not drain cleanly: %v", err)
	}

	// Restart on the same state directory and let everything finish.
	addr2 := freePort(t)
	srv2 := startTracedstd(t, addr2, state)
	defer func() {
		srv2.Process.Signal(syscall.SIGTERM)
		srv2.Wait()
	}()
	for _, id := range []string{a.ID, b.ID} {
		j := waitJobDone(t, addr2, id)
		if !j.Resumed {
			t.Errorf("job %s finished without being resumed — the kill missed it", id)
		}
		if got := jobReport(t, addr2, id); got != want {
			t.Errorf("job %s: resumed report differs from undisturbed server:\n--- want ---\n%s\n--- got ---\n%s",
				id, want, got)
		}
	}
}
