package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"runtime"
	"runtime/debug"
	"testing"

	"tracedst/internal/ctype"
	"tracedst/internal/telemetry"
	"tracedst/internal/trace"
)

// symbolRecords is workloadRecords with every other access credited to
// one of three global variables, so a job's report has per-variable rows
// and its series count in pages.
func symbolRecords(n int) []trace.Record {
	recs := workloadRecords(n)
	for i := 0; i < n; i += 2 {
		recs[i].HasSym, recs[i].Vis = true, trace.Global
		recs[i].Site = trace.NewSite(recs[i].Site.Func(), ctype.AccessExpr{Root: [...]string{"a", "b", "c"}[i%3]})
	}
	return recs
}

// missUploads returns n uploads of recs that each carry a header PID of
// their own, so no upload's result is cached: indexed .glb and text in
// turn.
func missUploads(tb testing.TB, recs []trace.Record, n int) [][]byte {
	out := make([][]byte, n)
	for k := range out {
		h := trace.Header{PID: 1000 + k}
		var buf bytes.Buffer
		var w trace.RecordWriter = trace.NewWriter(&buf)
		if k%2 == 0 {
			bw := trace.NewBinaryWriter(&buf)
			bw.EnableIndex()
			w = bw
		}
		if err := w.WriteHeader(h); err != nil {
			tb.Fatal(err)
		}
		for i := range recs {
			if err := w.Write(&recs[i]); err != nil {
				tb.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			tb.Fatal(err)
		}
		out[k] = buf.Bytes()
	}
	return out
}

// heapAllocBytes reads the cumulative bytes allocated on the heap; reading
// the memory statistics flushes every P's allocation cache.
func heapAllocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// submitMiss uploads one trace that no result covers and waits for its
// job to finish.
func submitMiss(tb testing.TB, base string, upload []byte) {
	resp, err := http.Post(base+"/jobs?wait=1", "application/octet-stream", bytes.NewReader(upload))
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		tb.Fatal(err)
	}
	if v.State != StateDone || v.Cached {
		tb.Fatalf("job %s ended %s (cached %t): %s", v.ID, v.State, v.Cached, v.Error)
	}
}

// TestMissJobsReuseState: once a few miss jobs have run, further ones —
// indexed .glb and text uploads with fresh PIDs — decode through recycled
// decode states and simulate on recycled simulator states: they make
// neither. Each allocates under 96 KiB, client side included (128 KiB
// under the race detector); a job that made its own 64 KiB read buffer,
// or its 41 KB of kernel arrays for the default 32 KB direct-mapped
// config, would not fit.
func TestMissJobsReuseState(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	_, ts, _ := newTestServer(t, nil)
	const warm, jobs = 4, 16
	uploads := missUploads(t, symbolRecords(4000), warm+jobs)
	for _, up := range uploads[:warm] {
		submitMiss(t, ts.URL, up)
	}
	decodeStates := telemetry.Default().Counter("trace.decode.states")
	simStates := telemetry.Default().Counter("multisim.states")
	d0, s0 := decodeStates.Value(), simStates.Value()
	before := heapAllocBytes()
	for _, up := range uploads[warm:] {
		submitMiss(t, ts.URL, up)
	}
	perJob := (heapAllocBytes() - before) / jobs
	t.Logf("%d miss jobs allocated %d bytes each", jobs, perJob)
	if got := decodeStates.Value() - d0; got != 0 {
		t.Errorf("%d miss jobs made %d decode states, want 0", jobs, got)
	}
	if got := simStates.Value() - s0; got != 0 {
		t.Errorf("%d miss jobs made %d simulator states, want 0", jobs, got)
	}
	limit := uint64(96 << 10)
	if raceBuild {
		limit = 128 << 10
	}
	if perJob > limit {
		t.Errorf("a miss job allocated %d bytes, want ≤ %d", perJob, limit)
	}
}

// BenchmarkServerMissJob: one upload → report round trip through an
// in-process server whose result cache misses, as tracedstd-miss drives
// it, reported in bytes allocated per job (client side included).
func BenchmarkServerMissJob(b *testing.B) {
	_, ts, _ := newTestServer(b, nil)
	uploads := missUploads(b, symbolRecords(4000), b.N+2)
	submitMiss(b, ts.URL, uploads[b.N])
	submitMiss(b, ts.URL, uploads[b.N+1])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submitMiss(b, ts.URL, uploads[i])
	}
}
