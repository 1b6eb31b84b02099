package dinero

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"

	"tracedst/internal/trace"
)

func TestSymTabInternStable(t *testing.T) {
	st := newSymTab()
	a := st.intern("main")
	b := st.intern("lSoA")
	if a == 0 || b == 0 || a == b {
		t.Fatalf("ids = %d, %d", a, b)
	}
	if got := st.intern("main"); got != a {
		t.Errorf("re-intern main = %d, want %d", got, a)
	}
	if st.name(a) != "main" || st.name(b) != "lSoA" {
		t.Errorf("names = %q, %q", st.name(a), st.name(b))
	}
	if st.name(0) != "" || st.name(symID(99)) != "" {
		t.Error("out-of-range names not empty")
	}
	if len(st.names) != 3 {
		t.Errorf("%d names, want main, lSoA and the reserved zero id", len(st.names))
	}
}

// decoded returns recs written as text and decoded again, so records of
// one spelling share the decoder's site.
func decoded(t *testing.T, recs []trace.Record) []trace.Record {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	_, _, out, err := trace.DecodeBytes(buf.Bytes(), trace.DecodeOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// collidingSites gives every record a site naming what its site names,
// each chosen so that every one of them takes memo slot 0: records of
// different spellings evict each other's ids on every access.
func collidingSites(recs []trace.Record) []trace.Record {
	var memo siteMemo
	bySpelling := map[*trace.Site]*trace.Site{}
	out := append([]trace.Record(nil), recs...)
	for i := range out {
		s := out[i].Site
		c, ok := bySpelling[s]
		for !ok || memo.slot(c) != &memo[0] {
			c, ok = trace.NewSite(s.Func(), s.Var()), true
		}
		bySpelling[s] = c
		out[i].Site = c
	}
	return out
}

// runReleased returns what a new MultiSim reports over recs, and releases
// it.
func runReleased(t *testing.T, opts MultiOptions, recs []trace.Record) simResult {
	t.Helper()
	m, err := NewMulti(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	m.Process(recs)
	return resultOf(m)
}

// TestSiteMemoMatchesNames: one trace fed with sites shared per spelling
// (a decoder's), with a site of its own per record (every lookup
// misses), and with sites that all take one memo slot (every change of
// spelling evicts) reports the same statistics, variables, functions,
// conflicts and reports on every config.
func TestSiteMemoMatchesNames(t *testing.T) {
	recs := decoded(t, multiRecords(12000, 24))
	shared := map[*trace.Site]bool{}
	for i := range recs {
		shared[recs[i].Site] = true
	}
	if len(shared) >= len(recs)/10 {
		t.Fatalf("decoder made %d sites for %d records, want them shared", len(shared), len(recs))
	}
	opts := MultiOptions{Configs: multiTestConfigs()}
	run := func(recs []trace.Record) simResult { return runReleased(t, opts, recs) }
	want := run(recs)
	for name, variant := range map[string][]trace.Record{
		"fresh":     freshSites(recs),
		"colliding": collidingSites(recs),
	} {
		if got := run(variant); !reflect.DeepEqual(got, want) {
			t.Errorf("%s sites: results differ from shared decoder sites", name)
			for i := range opts.Configs {
				if got.Reports[i] != want.Reports[i] {
					t.Errorf("%s config %d:\n--- %s ---\n%s\n--- shared ---\n%s", name, i, name, got.Reports[i], want.Reports[i])
				}
			}
		}
	}
}

// TestRecycledSiteMemo: a simulator built on the state of one released
// after a trace, fed records that reuse that trace's sites in another
// first-seen order, must resolve them in its own symbol table: it reports
// exactly what a simulator on a new state reports. The memo fits in 4 KiB,
// and a stats-only run makes none.
func TestRecycledSiteMemo(t *testing.T) {
	x := multiRecords(6000, 10)
	y := make([]trace.Record, len(x))
	for i := range x {
		y[len(x)-1-i] = x[i]
	}
	opts := MultiOptions{Configs: multiTestConfigs()}
	run := func(recs []trace.Record) simResult { return runReleased(t, opts, recs) }
	dropIdleSims()
	want := run(y)
	dropIdleSims()
	run(x)
	if n := idleSimCount(); n != 1 {
		t.Fatalf("%d idle states, want the one run over x released", n)
	}
	if got := run(y); !reflect.DeepEqual(got, want) {
		for i := range opts.Configs {
			if got.Reports[i] != want.Reports[i] {
				t.Errorf("config %d: recycled report differs:\n--- recycled ---\n%s\n--- new ---\n%s", i, got.Reports[i], want.Reports[i])
			}
		}
		t.Error("a simulator on a recycled state resolved sites to ids of the run before")
	}

	// The memo is at most 4 KiB, and a stats-only run on a new state
	// makes none.
	if n := unsafe.Sizeof(siteMemo{}); n > 4096 {
		t.Errorf("site memo is %d bytes, want at most 4096", n)
	}
	dropIdleSims()
	m, err := NewMulti(MultiOptions{Configs: opts.Configs, StatsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	m.Process(x)
	if m.st.memo != nil {
		t.Error("a stats-only run made a site memo")
	}
	m.Release()
}
