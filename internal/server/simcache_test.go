package server

import (
	"bytes"
	"net/url"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tracedst/internal/cache"
	"tracedst/internal/dinero"
	"tracedst/internal/trace"
	"tracedst/internal/workloads"
)

// encodeIndexedGLB renders records to a .glb with the block-index footer
// (the cheap content-hash path, and the sharded job engine's input).
func encodeIndexedGLB(t *testing.T, recs []trace.Record, blockRecs int) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := trace.NewBinaryWriter(&buf)
	bw.EnableIndex()
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

// TestDuplicateUploadCached: a second identical upload completes from the
// result cache — cached:true, the exact report bytes of the first run,
// no new trace walk — while a different config on the same trace misses.
func TestDuplicateUploadCached(t *testing.T) {
	_, ts, reg := newTestServer(t, nil)
	recs := workloadRecords(3000)
	glb := encodeGLB(t, recs, 64)

	v1 := submit(t, ts.URL, "?wait=1", glb)
	done1 := waitState(t, ts.URL, v1.ID, StateDone)
	if done1.Cached {
		t.Fatal("first upload claims cached")
	}
	rep1 := fetchReport(t, ts.URL, v1.ID)
	if want := refReport(t, recs, cache.Paper32KDirect()); rep1 != want {
		t.Fatalf("first report diverges from direct simulation")
	}
	if got := reg.Counter("simcache.misses").Value(); got != 1 {
		t.Errorf("after first job: simcache.misses = %d, want 1", got)
	}
	if got := reg.Counter("simcache.puts").Value(); got != 1 {
		t.Errorf("after first job: simcache.puts = %d, want 1", got)
	}
	simulated := reg.Counter("server.records_simulated").Value()

	v2 := submit(t, ts.URL, "?wait=1", glb)
	done2 := waitState(t, ts.URL, v2.ID, StateDone)
	if !done2.Cached {
		t.Error("duplicate upload not served from the result cache")
	}
	if done2.Records != done1.Records || done2.Warnings != done1.Warnings || done2.BadLines != done1.BadLines {
		t.Errorf("cached job diagnostics diverge: %+v vs %+v", done2.Job, done1.Job)
	}
	if rep2 := fetchReport(t, ts.URL, v2.ID); rep2 != rep1 {
		t.Errorf("cached report differs from the original:\n--- first ---\n%s\n--- cached ---\n%s", rep1, rep2)
	}
	if got := reg.Counter("simcache.hits").Value(); got != 1 {
		t.Errorf("simcache.hits = %d, want 1", got)
	}
	if got := reg.Counter("server.jobs_cached").Value(); got != 1 {
		t.Errorf("server.jobs_cached = %d, want 1", got)
	}
	if got := reg.Counter("server.records_simulated").Value(); got != simulated {
		t.Errorf("cached job re-simulated records: counter went %d -> %d", simulated, got)
	}
	if l, h, m := reg.Counter("simcache.lookups").Value(), reg.Counter("simcache.hits").Value(),
		reg.Counter("simcache.misses").Value(); l != h+m {
		t.Errorf("simcache.lookups %d != hits %d + misses %d", l, h, m)
	}

	// Same trace, different geometry: a distinct key, so a fresh run.
	v3 := submit(t, ts.URL, "?wait=1&config=size%3D1k%2Cassoc%3D2", glb)
	if done3 := waitState(t, ts.URL, v3.ID, StateDone); done3.Cached {
		t.Error("different config hit the cache")
	}
}

// TestForgedCollisionMisses: a cache file that holds another trace's
// result — here, the entries of two uploads swapped on disk — never
// answers an upload. Each re-upload misses, re-runs and comes back with
// its own report, because the store checks the key inside the envelope,
// not only the file name it was found under.
func TestForgedCollisionMisses(t *testing.T) {
	srv, ts, reg := newTestServer(t, nil)
	recsA := workloadRecords(3000)
	recsB := workloadRecords(2000)
	uploads := []struct {
		glb  []byte
		want string
	}{
		{encodeGLB(t, recsA, 64), refReport(t, recsA, cache.Paper32KDirect())},
		{encodeGLB(t, recsB, 64), refReport(t, recsB, cache.Paper32KDirect())},
	}
	if uploads[0].want == uploads[1].want {
		t.Fatal("the two traces have the same report; the swap would prove nothing")
	}
	for i, u := range uploads {
		v := submit(t, ts.URL, "?wait=1", u.glb)
		if done := waitState(t, ts.URL, v.ID, StateDone); done.Cached {
			t.Fatalf("upload %d: first upload claims cached", i)
		}
		if got := fetchReport(t, ts.URL, v.ID); got != u.want {
			t.Fatalf("upload %d: report diverges from direct simulation", i)
		}
	}

	entries, err := filepath.Glob(filepath.Join(srv.cfg.StateDir, "store", "sim", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("simcache holds %d entries, want 2: %v", len(entries), entries)
	}
	a, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(entries[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entries[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entries[1], a, 0o644); err != nil {
		t.Fatal(err)
	}

	misses := reg.Counter("simcache.misses").Value()
	for i, u := range uploads {
		v := submit(t, ts.URL, "?wait=1", u.glb)
		if done := waitState(t, ts.URL, v.ID, StateDone); done.Cached {
			t.Errorf("upload %d: re-upload answered from a swapped cache entry", i)
		}
		if got := fetchReport(t, ts.URL, v.ID); got != u.want {
			t.Errorf("upload %d: re-upload returned another trace's report:\n%s", i, got)
		}
	}
	if got := reg.Counter("simcache.misses").Value(); got != misses+2 {
		t.Errorf("simcache.misses went %d -> %d, want both re-uploads counted as misses", misses, got)
	}
}

// TestThrottledServerBypassesCache: Throttle exists to hold jobs in
// flight (drain testing); answering from the store would defeat it, so
// duplicates re-run — and each run still stores its result, which the
// job's record points at.
func TestThrottledServerBypassesCache(t *testing.T) {
	_, ts, reg := newTestServer(t, func(c *Config) { c.Throttle = time.Millisecond })
	glb := encodeGLB(t, workloadRecords(300), 64)
	for i := 0; i < 2; i++ {
		v := submit(t, ts.URL, "?wait=1", glb)
		if done := waitState(t, ts.URL, v.ID, StateDone); done.Cached {
			t.Fatal("throttled server served a cached job")
		}
	}
	if got := reg.Counter("simcache.lookups").Value(); got != 0 {
		t.Errorf("throttled server consulted the cache %d times", got)
	}
	if got := reg.Counter("simcache.puts").Value(); got != 2 {
		t.Errorf("throttled server stored %d results, want 2", got)
	}
}

// TestJobShardsReport: with -job-shards, an indexed binary upload is
// simulated on N parallel cold shards of a one-config MultiSim and the
// report equals a serial dinero.New run that flushes the cache at the
// shard boundaries; the result still lands in the cache under the
// sharded tier, so a duplicate is answered without re-running, and the
// serial tier stays separate.
func TestJobShardsReport(t *testing.T) {
	const shards = 4
	_, ts, reg := newTestServer(t, func(c *Config) { c.JobShards = shards })
	recs := workloadRecords(5000)
	glb := encodeIndexedGLB(t, recs, 64)

	v := submit(t, ts.URL, "?wait=1", glb)
	done := waitState(t, ts.URL, v.ID, StateDone)
	if done.Cached {
		t.Fatal("first sharded upload claims cached")
	}
	got := fetchReport(t, ts.URL, v.ID)

	// The flush points are where the shard ranges start, in records.
	tr, err := trace.NewIndexedBytes(glb)
	if err != nil {
		t.Fatal(err)
	}
	ranges := tr.ShardRanges(shards)
	if len(ranges) != shards {
		t.Fatalf("%d shard ranges, want %d", len(ranges), shards)
	}
	counts := tr.Index().Counts
	ref, err := dinero.New(dinero.Options{L1: cache.Paper32KDirect()})
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for _, r := range ranges[1:] {
		at := 0
		for _, n := range counts[:r[0]] {
			at += int(n)
		}
		ref.Process(recs[next:at])
		ref.Flush()
		next = at
	}
	ref.Process(recs[next:])
	if want := ref.Report(); got != want {
		t.Errorf("sharded job report diverges from a flush-at-boundary serial run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	if done.Records != int64(len(recs)) {
		t.Errorf("sharded job simulated %d records, want %d", done.Records, len(recs))
	}
	if got := reg.Counter("multisim.sharded_runs").Value(); got != 1 {
		t.Errorf("multisim.sharded_runs = %d, want 1", got)
	}

	v2 := submit(t, ts.URL, "?wait=1", glb)
	if done2 := waitState(t, ts.URL, v2.ID, StateDone); !done2.Cached {
		t.Error("duplicate sharded upload not served from the cache")
	} else if rep2 := fetchReport(t, ts.URL, v2.ID); rep2 != got {
		t.Error("cached sharded report differs from the original")
	}

	// A rule forces the record-by-record pipeline: sharding and the
	// sharded-tier cache entry must not apply.
	v3 := submit(t, ts.URL, "?wait=1&rule="+url.QueryEscape(workloads.RuleTrans1), glb)
	if done3 := waitState(t, ts.URL, v3.ID, StateDone); done3.Cached {
		t.Error("rule job hit the sharded-tier cache entry")
	}
}
