package simcache

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"tracedst/internal/cache"
	"tracedst/internal/ctype"
	"tracedst/internal/telemetry"
	"tracedst/internal/trace"
)

func testStore(t *testing.T) (*Store, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	s, err := Open(filepath.Join(t.TempDir(), "sc"), reg)
	if err != nil {
		t.Fatal(err)
	}
	return s, reg
}

func testKey() Key {
	return Key{
		Trace:  "recs:deadbeef",
		Config: ConfigSig(cache.Config{Size: 4096, BlockSize: 32, Assoc: 2, Repl: cache.ReplLRU}),
		Engine: EngineVersion,
	}
}

// TestRoundTrip is the cache's core promise: a hit returns the exact
// bytes the miss path stored — report, diagnostics and counts.
func TestRoundTrip(t *testing.T) {
	s, reg := testStore(t)
	k := testKey()

	if _, ok, err := s.Result(k); err != nil || ok {
		t.Fatalf("empty store: ok=%v err=%v, want miss", ok, err)
	}
	want := Entry{
		Records:  12345,
		BadLines: 2,
		Warnings: 1,
		Misses:   678,
		Report:   "== report ==\nline one\n\ttabbed\nnon-ascii: Δ\n",
	}
	if err := s.PutResult(k, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Result(k)
	if err != nil || !ok {
		t.Fatalf("after put: ok=%v err=%v, want hit", ok, err)
	}
	if got != want {
		t.Errorf("round trip mutated the entry:\n got %+v\nwant %+v", got, want)
	}
	if got.Report != want.Report {
		t.Errorf("report bytes differ")
	}

	counters := map[string]int64{
		"simcache.lookups": 2, "simcache.hits": 1, "simcache.misses": 1, "simcache.puts": 1,
	}
	for name, want := range counters {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestKeySensitivity: every key field must change the digest — a result
// stored under one (trace, config, rule, tier, engine) is invisible to
// all others, including an engine-version bump.
func TestKeySensitivity(t *testing.T) {
	s, _ := testStore(t)
	base := testKey()
	if err := s.PutResult(base, Entry{Records: 1}); err != nil {
		t.Fatal(err)
	}
	variants := map[string]Key{
		"trace":    {Trace: "recs:other", Config: base.Config, Engine: base.Engine},
		"config":   {Trace: base.Trace, Config: ConfigSig(cache.Config{Size: 8192, BlockSize: 32, Assoc: 2, Repl: cache.ReplLRU}), Engine: base.Engine},
		"rule":     {Trace: base.Trace, Config: base.Config, Rule: HashText("rule x => y"), Engine: base.Engine},
		"sampling": {Trace: base.Trace, Config: base.Config, Sampling: "@shards4", Engine: base.Engine},
		"engine":   {Trace: base.Trace, Config: base.Config, Engine: base.Engine + 1},
	}
	for field, k := range variants {
		if _, ok, err := s.Result(k); err != nil {
			t.Fatal(err)
		} else if ok {
			t.Errorf("key differing only in %s hit the stored entry", field)
		}
	}
	if _, ok, _ := s.Result(base); !ok {
		t.Error("unmodified key missed")
	}
}

// TestCollisionAndTornFilesReadAsMiss: a file whose embedded key does not
// match the lookup (digest collision) and a torn/garbage file must both
// read as misses, never as wrong results.
func TestCollisionAndTornFilesReadAsMiss(t *testing.T) {
	s, _ := testStore(t)
	k1, k2 := testKey(), testKey()
	k2.Trace = "recs:other"
	if err := s.PutResult(k1, Entry{Records: 1}); err != nil {
		t.Fatal(err)
	}
	// Simulate a digest collision: k1's file holds k2's envelope.
	other, err := os.ReadFile(s.path(resultNS, k2.digest()))
	if err == nil {
		t.Fatal("k2 should not exist yet")
	}
	if err := s.PutResult(k2, Entry{Records: 2}); err != nil {
		t.Fatal(err)
	}
	other, err = os.ReadFile(s.path(resultNS, k2.digest()))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(resultNS, k1.digest()), other, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Result(k1); err != nil || ok {
		t.Errorf("mismatching embedded key: ok=%v err=%v, want silent miss", ok, err)
	}
	// Torn write: truncated JSON.
	if err := os.WriteFile(s.path(resultNS, k1.digest()), other[:len(other)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Result(k1); err != nil || ok {
		t.Errorf("torn file: ok=%v err=%v, want silent miss", ok, err)
	}
	// And Put must recover by overwriting in place.
	if err := s.PutResult(k1, Entry{Records: 3}); err != nil {
		t.Fatal(err)
	}
	if e, ok, _ := s.Result(k1); !ok || e.Records != 3 {
		t.Errorf("after overwrite: ok=%v entry=%+v", ok, e)
	}
}

// figure is a stand-in record value.
type figure struct {
	ID     string `json:"id"`
	Misses int64  `json:"misses"`
}

// TestRecordRoundTrip: a stored record reads back from the handle that
// wrote it and from a fresh handle on the same directory, an absent key
// misses, and records move none of the result counters: their reads are
// counted as record lookups and hits.
func TestRecordRoundTrip(t *testing.T) {
	s, reg := testStore(t)
	if err := s.PutRecord("fig", "fig3@engine1", figure{ID: "fig3", Misses: 42}); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := Record[figure](s, "fig", "fig3@engine1"); err != nil || !ok || got.Misses != 42 {
		t.Fatalf("Record = %+v %v %v", got, ok, err)
	}
	if _, ok, err := Record[figure](s, "fig", "fig4@engine1"); err != nil || ok {
		t.Errorf("absent key: ok=%v err=%v, want miss", ok, err)
	}
	// The same key in another namespace is another record.
	if _, ok, err := Record[figure](s, "job", "fig3@engine1"); err != nil || ok {
		t.Errorf("key read from the wrong namespace: ok=%v err=%v, want miss", ok, err)
	}

	s2, err := Open(s.dir, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if got, ok, err := Record[figure](s2, "fig", "fig3@engine1"); err != nil || !ok || got != (figure{ID: "fig3", Misses: 42}) {
		t.Fatalf("reopened Record = %+v %v %v", got, ok, err)
	}
	for _, name := range []string{"simcache.lookups", "simcache.hits", "simcache.misses", "simcache.puts"} {
		if got := reg.Counter(name).Value(); got != 0 {
			t.Errorf("%s = %d after record traffic, want 0", name, got)
		}
	}
	for name, want := range map[string]int64{"simcache.record_lookups": 3, "simcache.record_hits": 1} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestRecordsSkipTornFiles: a half-written file, a file holding another
// key's record, and an unrelated file in a namespace are skipped by the
// listing, and the torn key reads as a miss.
func TestRecordsSkipTornFiles(t *testing.T) {
	s, _ := testStore(t)
	if err := s.PutRecord("job", "j000001", figure{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutRecord("job", "j000002", figure{ID: "b"}); err != nil {
		t.Fatal(err)
	}
	torn := s.path("job", recordDigest("job", "j000001"))
	if err := os.WriteFile(torn, []byte(`{"key":"j000001","val`), 0o644); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(s.path("job", recordDigest("job", "j000002")))
	if err != nil {
		t.Fatal(err)
	}
	misplaced := s.path("job", recordDigest("job", "j000003"))
	if err := os.WriteFile(misplaced, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.dir, "job", "notes.txt"), []byte("unrelated"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Records[figure](s, "job")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != "b" {
		t.Errorf("listing = %+v, want only the intact record b", got)
	}
	if _, ok, err := Record[figure](s, "job", "j000001"); err != nil || ok {
		t.Errorf("torn record: ok=%v err=%v, want miss", ok, err)
	}
	if _, ok, err := Record[figure](s, "job", "j000003"); err != nil || ok {
		t.Errorf("misplaced record: ok=%v err=%v, want miss", ok, err)
	}
}

// TestRecordsListOneNamespace: listing a namespace returns its records in
// key order and nothing stored in any other namespace, results included.
func TestRecordsListOneNamespace(t *testing.T) {
	s, _ := testStore(t)
	for _, id := range []string{"j000003", "j000001", "j000002"} {
		if err := s.PutRecord("job", id, figure{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutRecord("fig", "fig3", figure{ID: "fig3"}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutResult(testKey(), Entry{Records: 1}); err != nil {
		t.Fatal(err)
	}
	got, err := Records[figure](s, "job")
	if err != nil {
		t.Fatal(err)
	}
	want := []figure{{ID: "j000001"}, {ID: "j000002"}, {ID: "j000003"}}
	if len(got) != len(want) {
		t.Fatalf("listing = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("listing[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if got, err := Records[figure](s, "none"); err != nil || len(got) != 0 {
		t.Errorf("empty namespace: %+v %v", got, err)
	}
}

// TestConcurrentPutsOneKey: writers racing on one key leave exactly one
// file holding one writer's whole value.
func TestConcurrentPutsOneKey(t *testing.T) {
	s, _ := testStore(t)
	const writers = 8
	reports := make([]string, writers)
	for i := range reports {
		reports[i] = strings.Repeat(string(rune('a'+i)), 64<<10)
	}
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 5; n++ {
				if err := s.PutResult(testKey(), Entry{Records: int64(i), Report: reports[i]}); err != nil {
					t.Error(err)
				}
			}
		}(i)
	}
	wg.Wait()
	e, ok, err := s.Result(testKey())
	if err != nil || !ok {
		t.Fatalf("after racing puts: ok=%v err=%v", ok, err)
	}
	if e.Records < 0 || e.Records >= writers || e.Report != reports[e.Records] {
		t.Errorf("entry mixes writers: records=%d, report of %d bytes", e.Records, len(e.Report))
	}
	files, err := os.ReadDir(filepath.Join(s.dir, resultNS))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Errorf("%d files after racing puts of one key, want 1", len(files))
	}
}

func testRecords(n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{
			Op: trace.Load, Addr: uint64(0x1000 + 8*i), Size: 8, Site: trace.NewSite("f", ctype.AccessExpr{Root: "a"}),
			HasSym: true, Vis: trace.Global,
		}
	}
	return recs
}

// TestHashRecords: deterministic over equal slices, sensitive to any
// record change, distinct from the file-tier prefixes.
func TestHashRecords(t *testing.T) {
	recs := testRecords(100)
	h1 := HashRecords(recs)
	if !strings.HasPrefix(h1, "recs:") {
		t.Fatalf("got %q", h1)
	}
	if h2 := HashRecords(testRecords(100)); h2 != h1 {
		t.Errorf("equal slices hashed differently")
	}
	recs[42].Size = 4
	if h2 := HashRecords(recs); h2 == h1 {
		t.Errorf("modified slice collided")
	}
	if HashRecords(nil) == HashRecords(testRecords(1)) {
		t.Error("empty slice collided with one record")
	}
}

// TestConfigSig: every simulation-relevant field is represented, the
// display name is not.
func TestConfigSig(t *testing.T) {
	base := cache.Config{Name: "a", Size: 4096, BlockSize: 32, Assoc: 2, Repl: cache.ReplLRU}
	renamed := base
	renamed.Name = "b"
	if ConfigSig(base) != ConfigSig(renamed) {
		t.Error("display name leaked into the signature")
	}
	bigger := base
	bigger.Size = 8192
	if ConfigSig(base) == ConfigSig(bigger) {
		t.Error("size change did not change the signature")
	}
	classify := base
	classify.ClassifyMisses = true
	if ConfigSig(base) == ConfigSig(classify) {
		t.Error("classify change did not change the signature")
	}
}
