package simcache

import (
	"os"
	"path/filepath"
	"strings"
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

	if _, ok, err := s.Get(k); err != nil || ok {
		t.Fatalf("empty store: ok=%v err=%v, want miss", ok, err)
	}
	want := Entry{
		Records:  12345,
		BadLines: 2,
		Warnings: 1,
		Misses:   678,
		Report:   "== report ==\nline one\n\ttabbed\nnon-ascii: Δ\n",
	}
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(k)
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
	if err := s.Put(base, Entry{Records: 1}); err != nil {
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
		if _, ok, err := s.Get(k); err != nil {
			t.Fatal(err)
		} else if ok {
			t.Errorf("key differing only in %s hit the stored entry", field)
		}
	}
	if _, ok, _ := s.Get(base); !ok {
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
	if err := s.Put(k1, Entry{Records: 1}); err != nil {
		t.Fatal(err)
	}
	// Simulate a digest collision: k1's file holds k2's envelope.
	other, err := os.ReadFile(s.path(k2))
	if err == nil {
		t.Fatal("k2 should not exist yet")
	}
	if err := s.Put(k2, Entry{Records: 2}); err != nil {
		t.Fatal(err)
	}
	other, err = os.ReadFile(s.path(k2))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(k1), other, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(k1); err != nil || ok {
		t.Errorf("mismatching embedded key: ok=%v err=%v, want silent miss", ok, err)
	}
	// Torn write: truncated JSON.
	if err := os.WriteFile(s.path(k1), other[:len(other)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(k1); err != nil || ok {
		t.Errorf("torn file: ok=%v err=%v, want silent miss", ok, err)
	}
	// And Put must recover by overwriting in place.
	if err := s.Put(k1, Entry{Records: 3}); err != nil {
		t.Fatal(err)
	}
	if e, ok, _ := s.Get(k1); !ok || e.Records != 3 {
		t.Errorf("after overwrite: ok=%v entry=%+v", ok, e)
	}
}

func testRecords(n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{
			Op: trace.Load, Addr: uint64(0x1000 + 8*i), Size: 8, Func: "f",
			HasSym: true, Vis: trace.Global, Var: ctype.AccessExpr{Root: "a"},
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
