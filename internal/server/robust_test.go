package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tracedst/internal/cache"
	"tracedst/internal/faultinject"
	"tracedst/internal/telemetry"
	"tracedst/internal/trace"
)

// TestOversizeBodyRejected: a body over MaxBodyBytes gets 413 and leaves
// no job or spool file behind.
func TestOversizeBodyRejected(t *testing.T) {
	_, ts, reg := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 1024 })
	big := encodeGLB(t, workloadRecords(5000), 64)
	if len(big) <= 1024 {
		t.Fatalf("test trace only %d bytes", len(big))
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/octet-stream", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	if n := reg.Counter("server.rejected_size").Value(); n != 1 {
		t.Errorf("server.rejected_size = %d, want 1", n)
	}
	if n := reg.Counter("server.uploads").Value(); n != 0 {
		t.Errorf("oversize upload was admitted (uploads = %d)", n)
	}
}

// TestRateLimit429: a client over its token budget gets 429 with a
// Retry-After, and recovers once the bucket refills.
func TestRateLimit429(t *testing.T) {
	// Workers read the clock too (job timestamps), so it is atomic.
	var clock atomic.Int64
	clock.Store(time.Unix(1700000000, 0).UnixNano())
	_, ts, reg := newTestServer(t, func(c *Config) {
		c.RatePerSec = 2
		c.Burst = 3
		c.now = func() time.Time { return time.Unix(0, clock.Load()) }
	})
	glb := encodeGLB(t, workloadRecords(50), 16)

	for i := 0; i < 3; i++ {
		v := submit(t, ts.URL, "", glb)
		if v.ID == "" {
			t.Fatalf("burst submission %d rejected", i)
		}
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/octet-stream", bytes.NewReader(glb))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if n := reg.Counter("server.rejected_rate").Value(); n != 1 {
		t.Errorf("server.rejected_rate = %d, want 1", n)
	}

	// A different client has its own bucket.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/jobs", bytes.NewReader(glb))
	req.Header.Set("X-Client-ID", "other")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted {
		t.Errorf("fresh client: status %d, want 202", resp2.StatusCode)
	}

	// Half a second at 2 tokens/s refills one token.
	clock.Add(int64(time.Second / 2))
	resp3, err := http.Post(ts.URL+"/jobs", "application/octet-stream", bytes.NewReader(glb))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusAccepted {
		t.Errorf("after refill: status %d, want 202", resp3.StatusCode)
	}
}

// TestQueueFull503: with one slow worker and a one-slot queue, a third
// concurrent job is shed with 503 instead of queued unboundedly.
func TestQueueFull503(t *testing.T) {
	_, ts, reg := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
		c.Throttle = 25 * time.Millisecond
	})
	glb := encodeGLB(t, workloadRecords(4000), 32)

	running := submit(t, ts.URL, "", glb)
	waitState(t, ts.URL, running.ID, StateRunning) // worker busy, queue empty
	submit(t, ts.URL, "", glb)                     // fills the single slot

	resp, err := http.Post(ts.URL+"/jobs", "application/octet-stream", bytes.NewReader(glb))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if reg.Counter("server.rejected_queue").Value() == 0 {
		t.Error("server.rejected_queue never incremented")
	}
}

// TestSlowLorisBody: an upload trickling in slower than BodyTimeout is
// cut off and rejected rather than pinning a handler forever.
func TestSlowLorisBody(t *testing.T) {
	_, ts, reg := newTestServer(t, func(c *Config) { c.BodyTimeout = 150 * time.Millisecond })
	glb := encodeGLB(t, workloadRecords(2000), 64)
	// ~40ms per 16-byte chunk: the body would need tens of seconds.
	body := faultinject.SlowBody(glb, 16, 40*time.Millisecond)

	start := time.Now()
	resp, err := http.Post(ts.URL+"/jobs", "application/octet-stream", body)
	if err == nil {
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("slow-loris got status %d, want 400 (or a killed connection)", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("slow-loris held the handler %v", elapsed)
	}
	if n := reg.Counter("server.rejected_body").Value(); n != 1 {
		t.Errorf("server.rejected_body = %d, want 1", n)
	}
	if n := reg.Counter("server.uploads").Value(); n != 0 {
		t.Errorf("slow-loris upload was admitted (uploads = %d)", n)
	}
}

// TestTruncatedUpload: a client that declares a Content-Length and sends
// less, then half-closes, must be rejected without admitting a job.
func TestTruncatedUpload(t *testing.T) {
	_, ts, reg := newTestServer(t, nil)
	glb := encodeGLB(t, workloadRecords(2000), 64)
	addr := strings.TrimPrefix(ts.URL, "http://")

	code, err := faultinject.PostTruncated(addr, "/jobs", "application/octet-stream", glb, len(glb)/3)
	if err != nil {
		t.Fatal(err)
	}
	// 400 if the server answered; 0 if it hung up on the liar. Both are
	// acceptable — admitting the job is not.
	if code != 0 && code != http.StatusBadRequest {
		t.Errorf("truncated upload got status %d, want 400 or connection drop", code)
	}
	if n := reg.Counter("server.uploads").Value(); n != 0 {
		t.Errorf("truncated upload was admitted (uploads = %d)", n)
	}
	if n := reg.Counter("server.rejected_body").Value(); n != 1 {
		t.Errorf("server.rejected_body = %d, want 1", n)
	}
}

// TestAbortMidStream: a body reader that dies mid-upload must not admit
// a job or wedge the handler.
func TestAbortMidStream(t *testing.T) {
	_, ts, reg := newTestServer(t, nil)
	glb := encodeGLB(t, workloadRecords(2000), 64)
	resp, err := http.Post(ts.URL+"/jobs", "application/octet-stream", faultinject.AbortBody(glb, len(glb)/2))
	if err == nil {
		// The transport may surface the server's 400 instead of the local
		// read error, depending on timing.
		resp.Body.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for reg.Counter("server.rejected_body").Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := reg.Counter("server.uploads").Value(); n != 0 {
		t.Errorf("aborted upload was admitted (uploads = %d)", n)
	}
	if n := reg.Counter("server.rejected_body").Value(); n != 1 {
		t.Errorf("server.rejected_body = %d, want 1", n)
	}
}

// TestDrainingRejectsSubmissions: once Shutdown begins, POST /jobs gets
// 503 + Retry-After and /readyz flips to 503.
func TestDrainingRejectsSubmissions(t *testing.T) {
	srv, ts, reg := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.Throttle = 25 * time.Millisecond
	})
	glb := encodeGLB(t, workloadRecords(4000), 32)
	v := submit(t, ts.URL, "", glb)
	waitState(t, ts.URL, v.ID, StateRunning)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- srv.Shutdown(ctx)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for !srv.isDraining() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/jobs", "application/octet-stream", bytes.NewReader(glb))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining 503 without Retry-After")
	}
	if reg.Counter("server.rejected_drain").Value() == 0 {
		t.Error("server.rejected_drain never incremented")
	}
	rresp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining: status %d, want 503", rresp.StatusCode)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestConcurrentOverloadShedsCleanly is the fault-injection acceptance
// test: a burst of concurrent uploads against one slow worker and a tiny
// queue must split cleanly into 202s and 503s (nothing hangs, nothing
// 5xxs unexpectedly), every admitted job must reach a terminal state,
// and after a full drain no job goroutines may linger.
func TestConcurrentOverloadShedsCleanly(t *testing.T) {
	before := runtime.NumGoroutine()
	reg := telemetry.NewRegistry()
	srv, err := New(Config{
		StateDir:   t.TempDir(),
		Workers:    2,
		QueueDepth: 2,
		RatePerSec: -1,
		Reg:        reg,
		Throttle:   5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	glb := encodeGLB(t, workloadRecords(1000), 64)
	const clients = 16
	codes := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/jobs", "application/octet-stream", bytes.NewReader(glb))
			if err != nil {
				codes[i] = -1
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()

	var accepted, shed int
	for i, code := range codes {
		switch code {
		case http.StatusAccepted:
			accepted++
		case http.StatusServiceUnavailable:
			shed++
		default:
			t.Errorf("client %d: status %d, want 202 or 503", i, code)
		}
	}
	if accepted == 0 {
		t.Error("overload shed every request; admission control is a wall, not a valve")
	}
	if shed == 0 {
		t.Error("16 concurrent uploads against queue depth 2 shed nothing")
	}
	t.Logf("overload: %d accepted, %d shed", accepted, shed)

	// Every admitted job finishes; nothing is stuck.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if reg.Counter("server.jobs_done").Value() == int64(accepted) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d admitted jobs finished", reg.Counter("server.jobs_done").Value(), accepted)
		}
		time.Sleep(10 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()

	// Leak check: allow the HTTP machinery a moment to wind down, then
	// demand the goroutine count returns to (near) the baseline.
	var after int
	for i := 0; i < 100; i++ {
		runtime.GC()
		after = runtime.NumGoroutine()
		if after <= before+2 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if after > before+2 {
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutines leaked: %d before, %d after drain\n%s", before, after, buf[:n])
	}
}

// TestChaosSweep runs every upload-side corruption class the package
// knows (text corruptors and .glb footer damage) through the server:
// none may crash it, and every response must be a deliberate one — an
// admitted job that ends terminal, or a clean 4xx.
func TestChaosSweep(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	recs := workloadRecords(500)
	glb := encodeGLB(t, recs, 64)

	// An indexed .glb, so the footer corruption classes have a footer to
	// damage.
	var ibuf bytes.Buffer
	ibw := trace.NewBinaryWriter(&ibuf)
	ibw.EnableIndex()
	ibw.SetBlockRecords(64)
	if err := ibw.WriteHeader(trace.Header{PID: 7}); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := ibw.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ibw.Flush(); err != nil {
		t.Fatal(err)
	}
	indexed := ibuf.Bytes()

	// Footer damage is survivable by design: decode falls back to a scan
	// and the job completes with a warning.
	for _, class := range faultinject.GLBFooterClasses() {
		t.Run("glb-"+class.Name, func(t *testing.T) {
			data := class.Apply(append([]byte(nil), indexed...))
			if bytes.Equal(data, indexed) {
				t.Fatal("corruption class left the trace unchanged")
			}
			v := submit(t, ts.URL, "?wait=1", data)
			if v.State != StateDone {
				t.Fatalf("footer-damaged upload ended %s: %s", v.State, v.Error)
			}
			if v.Warnings == 0 {
				t.Error("footer damage produced no validator warning")
			}
			if got, want := fetchReport(t, ts.URL, v.ID), refReport(t, recs, cache.Paper32KDirect()); got != want {
				t.Error("footer-damaged trace simulated differently from the clean one")
			}
		})
	}

	// Structural damage fails the job with a validation error — never a
	// hung job, never a dead server.
	var textBuf bytes.Buffer
	tw := trace.NewWriter(&textBuf)
	if err := tw.WriteHeader(trace.Header{PID: 7}); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := tw.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	text := textBuf.String()
	damaged := []struct {
		name string
		data []byte
	}{
		{"mid-line-truncation", []byte(faultinject.Truncate(text, 0.5))},
		{"op-bit-rot", []byte(faultinject.BitFlipOps(text, 5, 3))},
		{"garbage-interleave", []byte(faultinject.InterleaveGarbage(text, 7, 40))},
		{"corrupt-header", []byte(faultinject.CorruptHeader(text))},
		{"torn-glb-block", glb[:len(glb)*2/3]},
	}
	for _, d := range damaged {
		t.Run(d.name, func(t *testing.T) {
			v := submit(t, ts.URL, "?wait=1", d.data)
			if !v.State.terminal() {
				t.Fatalf("damaged upload left job in %s", v.State)
			}
		})
	}
}
