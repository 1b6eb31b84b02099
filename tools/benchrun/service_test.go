package main

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tracedst/internal/trace"
	"tracedst/internal/tracer"
	"tracedst/internal/workloads"
)

// loadBench is a tracedstd-miss serviceBench with no server, for driving
// the load loop with a fake send.
func loadBench() *serviceBench {
	return &serviceBench{
		rng:     rand.New(rand.NewSource(1)),
		upload:  &upload{records: 100},
		clients: []string{"client"},
		pid:     pidLo,
	}
}

func TestClosedLoopWaitsForEachReply(t *testing.T) {
	b := loadBench()
	var mu sync.Mutex
	inFlight, most := 0, 0
	w := b.closedLoop(200*time.Millisecond, func(request) error {
		mu.Lock()
		inFlight++
		most = max(most, inFlight)
		mu.Unlock()
		time.Sleep(20 * time.Millisecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
		return nil
	})
	if most != conns {
		t.Errorf("at most %d requests in flight, want %d (one per client)", most, conns)
	}
	if w.failed != 0 || len(w.lat) != w.attempted || w.attempted < conns {
		t.Fatalf("attempted=%d failed=%d lat=%d", w.attempted, w.failed, len(w.lat))
	}
	if min := percentile(w.lat, 1); min < 20 {
		t.Errorf("fastest request took %.1f ms, below the 20 ms service time", min)
	}
	if w.records != int64(w.attempted)*100 {
		t.Errorf("records = %d, want %d", w.records, w.attempted*100)
	}
}

func TestFailedRequestsCountAsFailures(t *testing.T) {
	refused := errors.New("429 Too Many Requests")
	b := loadBench()
	w := b.closedLoop(50*time.Millisecond, func(q request) error {
		if q.pid%2 == 0 {
			return refused
		}
		return nil
	})
	if w.failed == 0 || w.failed == w.attempted {
		t.Fatalf("failed=%d of %d, want some but not all", w.failed, w.attempted)
	}
	inf := 0
	for _, ms := range w.lat {
		if math.IsInf(ms, 1) {
			inf++
		}
	}
	if inf != w.failed {
		t.Errorf("%d latencies are +Inf, want one per failure (%d)", inf, w.failed)
	}
	if !math.IsInf(percentile(w.lat, 100), 1) {
		t.Error("the highest percentile must reach the refused requests")
	}
	if w.records != int64(w.attempted-w.failed)*100 {
		t.Errorf("records = %d, want only the %d successes' records", w.records, w.attempted-w.failed)
	}
}

func TestRefusalIsAnError(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "rate limit exceeded", http.StatusTooManyRequests)
	}))
	defer hs.Close()
	req, err := http.NewRequest(http.MethodPost, hs.URL+"/jobs", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := roundTrip(hs.Client(), req); err == nil || !strings.Contains(err.Error(), "429") {
		t.Errorf("roundTrip on a 429 = %v, want an error naming the status", err)
	}
}

func TestUploadPIDPatch(t *testing.T) {
	res, err := tracer.Run(workloads.MatMul, map[string]string{"N": "6"}, tracer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	u, err := newUpload(res.Records)
	if err != nil {
		t.Fatal(err)
	}
	for _, pid := range []int{pidLo, 543210, pidHi - 1} {
		data, err := io.ReadAll(u.body(pid))
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(data)) != u.size() {
			t.Errorf("pid=%d: %d bytes, size() says %d", pid, len(data), u.size())
		}
		rd, _, err := trace.OpenReader(bytes.NewReader(data), trace.DecodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		h, err := rd.Header()
		if err != nil || h.PID != pid {
			t.Errorf("header PID %d (%v), want %d", h.PID, err, pid)
		}
		recs, err := rd.ReadAll()
		if err != nil || len(recs) != len(res.Records) {
			t.Errorf("pid=%d: %d records (%v), want %d", pid, len(recs), err, len(res.Records))
		}
		// The block-index footer must still point at the blocks.
		tr, err := trace.NewIndexedBytes(data)
		if err != nil {
			t.Fatalf("pid=%d: %v", pid, err)
		}
		if !tr.HasFooter() || tr.FooterErr() != nil || tr.Records() != int64(len(res.Records)) {
			t.Errorf("pid=%d: footer %t (%v), %d records", pid, tr.HasFooter(), tr.FooterErr(), tr.Records())
		}
	}
}
