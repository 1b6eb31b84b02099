package xform

import (
	"testing"

	"tracedst/internal/ctype"
	"tracedst/internal/trace"
	"tracedst/internal/tracer"
	"tracedst/internal/workloads"
)

// TestInputSitesUnchanged: the engine never writes through a site it was
// given. After every rule kind runs, each input record holds the site it
// held before, naming what it named, and a record no rule matches passes
// through holding its own site.
func TestInputSitesUnchanged(t *testing.T) {
	for _, c := range []struct {
		name, src, rule string
		defs            map[string]string
	}{
		{"remap", workloads.Trans1SoA, workloads.RuleTrans1, map[string]string{"LEN": "16"}},
		{"outline", workloads.Trans2Inline, workloads.RuleTrans2, map[string]string{"LEN": "16"}},
		{"stride", workloads.Trans3Contiguous, workloads.RuleTrans3, map[string]string{"LEN": "1024"}},
		{"peel", peelProgram, peelRule, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			rule := mustRule(t, c.rule)
			orig := withNonConforming(t, traceOf(t, c.src, c.defs), rule.InRoot())
			sites := make([]*trace.Site, len(orig))
			names := make([]string, len(orig))
			for i := range orig {
				sites[i], names[i] = orig[i].Site, orig[i].Site.Func()+" "+orig[i].Site.Var().String()
			}
			eng := mustEngine(t, rule)
			if _, err := eng.TransformAll(orig); err != nil {
				t.Fatal(err)
			}
			passed := 0
			for i := range orig {
				r := &orig[i]
				if name := r.Site.Func() + " " + r.Site.Var().String(); r.Site != sites[i] || name != names[i] {
					t.Fatalf("record %d: site %p naming %q, was %p naming %q", i, r.Site, name, sites[i], names[i])
				}
				if r.HasSym && r.Site.Var().Root == rule.InRoot() {
					continue
				}
				out, err := eng.Transform(r)
				if err != nil {
					t.Fatal(err)
				}
				if len(out) != 1 || out[0].Site != r.Site {
					t.Fatalf("record %d (%v) passed through without its site", i, r)
				}
				passed++
			}
			if passed == 0 {
				t.Fatal("no record passed through")
			}
		})
	}
}

// TestRewritesShareSites: records rewritten or injected to one spelling
// hold one site while no record of another spelling takes their memo slot
// in between, as none does on these traces — from input records that
// share a site, from input records of one spelling that do not, and from
// inputs of different spellings that rewrite to one (an outline rule's
// pointer loads).
func TestRewritesShareSites(t *testing.T) {
	x := func() *trace.Site {
		return trace.NewLocalSite("main", ctype.AccessExpr{Root: "lSoA", Path: ctype.Path{{Field: "mX"}, {Index: 3}}}, 0, 1)
	}
	shared := x()
	in := []trace.Record{
		{Op: trace.Store, Addr: 0x7ff000100, Size: 4, HasSym: true, Vis: trace.Local, Aggregate: true, Site: shared},
		{Op: trace.Load, Addr: 0x7ff000100, Size: 4, HasSym: true, Vis: trace.Local, Aggregate: true, Site: shared},
		{Op: trace.Load, Addr: 0x7ff000100, Size: 4, HasSym: true, Vis: trace.Local, Aggregate: true, Site: x()},
	}
	out, err := mustEngine(t, mustRule(t, workloads.RuleTrans1)).TransformAll(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[0].Site.Var().String() != "lAoS[3].mX" {
		t.Fatalf("remap: %d records, first %v", len(out), &out[0])
	}
	if out[1].Site != out[0].Site || out[2].Site != out[0].Site {
		t.Errorf("remap: three rewrites to %s hold %d sites", out[0].Site.Var(), len(distinctSites(out)))
	}

	// Every member of lS1[i].mRarelyUsed rewrites to a load of the pointer
	// lS2[i].mRarelyUsed, then the member in the pool.
	orig := traceOf(t, workloads.Trans2Inline, map[string]string{"LEN": "16"})
	out, err = mustEngine(t, mustRule(t, workloads.RuleTrans2)).TransformAll(orig)
	if err != nil {
		t.Fatal(err)
	}
	checkOneSitePerSpelling(t, "outline", orig, out)
	loads := 0
	for i := range out {
		if out[i].Site.Var().String() == "lS2[0].mRarelyUsed" {
			loads++
		}
	}
	if loads < 2 {
		t.Fatalf("outline: %d pointer loads of lS2[0].mRarelyUsed, want several", loads)
	}

	orig = traceOf(t, workloads.Trans3Contiguous, map[string]string{"LEN": "1024"})
	out, err = mustEngine(t, mustRule(t, workloads.RuleTrans3)).TransformAll(orig)
	if err != nil {
		t.Fatal(err)
	}
	checkOneSitePerSpelling(t, "stride", orig, out)
}

// TestSiteMemoEvicts: records rewritten to addresses that share a memo
// slot take turns in it, and each holds a site naming its own access.
func TestSiteMemoEvicts(t *testing.T) {
	// The in structure is larger than the memo covers, and lAoS elements
	// are 16 bytes, so [0] and [k] share a slot.
	const k = maxMemoSlots / 4
	rec := func(i int64) trace.Record {
		site := trace.NewLocalSite("main", ctype.AccessExpr{Root: "lSoA", Path: ctype.Path{{Field: "mX"}, {Index: i}}}, 0, 1)
		return trace.Record{Op: trace.Store, Addr: 0x7ff000100 + uint64(4*i), Size: 4, HasSym: true, Vis: trace.Local, Aggregate: true, Site: site}
	}
	in := []trace.Record{rec(0), rec(k), rec(0), rec(k)}
	out, err := mustEngine(t, mustRule(t, workloads.RuleTrans1ForLen(2*k))).TransformAll(in)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"lAoS[0].mX", "lAoS[4096].mX", "lAoS[0].mX", "lAoS[4096].mX"} {
		if got := out[i].Site.Var().String(); got != want || out[i].Site.Func() != "main" {
			t.Errorf("record %d names %s %s, want main %s", i, out[i].Site.Func(), got, want)
		}
	}
}

// checkOneSitePerSpelling fails when two records of one spelling that hold
// sites the engine made (none of in's) hold two sites.
func checkOneSitePerSpelling(t *testing.T, name string, in, out []trace.Record) {
	t.Helper()
	given := distinctSites(in)
	bySpelling := map[string]*trace.Site{}
	for i := range out {
		if given[out[i].Site] {
			continue
		}
		key := out[i].Site.Func() + " " + out[i].Site.Var().String()
		if s, ok := bySpelling[key]; ok && s != out[i].Site {
			t.Errorf("%s: %q is held by two sites", name, key)
			return
		}
		bySpelling[key] = out[i].Site
	}
}

func distinctSites(recs []trace.Record) map[*trace.Site]bool {
	m := map[*trace.Site]bool{}
	for i := range recs {
		m[recs[i].Site] = true
	}
	return m
}

// TestInjectsKeepModelThread: a rule's injects carry the frame and thread
// of the record they copy. On a trace taken on thread 3, the stride
// rule's synthetic ITEMSPERLINE loads are frame-0 locals on the model's
// thread, its lI loads keep the traced lI's frame and thread, and the
// rewritten records keep the input's; a model that names no thread puts
// synthetic injects on thread 1. Records of one element in other frames
// or on other threads, rewritten to one address and so one memo slot,
// keep their own.
func TestInjectsKeepModelThread(t *testing.T) {
	res, err := tracer.Run(workloads.Trans3Contiguous, map[string]string{"LEN": "1024"}, tracer.Options{Thread: 3})
	if err != nil {
		t.Fatal(err)
	}
	out, err := mustEngine(t, mustRule(t, workloads.RuleTrans3)).TransformAll(res.Records)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i := range out {
		r := &out[i]
		switch root := r.Site.Var().Root; root {
		case "ITEMSPERLINE", "lI", "lSetHashingArray":
			seen[root]++
			if r.Vis != trace.Local || r.Site.Frame() != 0 || r.Site.Thread() != 3 {
				t.Fatalf("%s: want a frame-0 local on thread 3, got frame %d thread %d", r.String(), r.Site.Frame(), r.Site.Thread())
			}
		}
	}
	if seen["ITEMSPERLINE"] == 0 || seen["lI"] == 0 || seen["lSetHashingArray"] == 0 {
		t.Fatalf("records seen per root: %v", seen)
	}

	rec := trace.Record{Op: trace.Load, Addr: 0x7ff000300, Size: 4, HasSym: true, Vis: trace.Local, Aggregate: true,
		Site: trace.NewSite("main", ctype.AccessExpr{Root: "lContiguousArray", Path: ctype.Path{{Index: 5}}})}
	out, err = mustEngine(t, mustRule(t, workloads.RuleTrans3)).TransformAll([]trace.Record{rec})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("%d records, want four injects and the rewrite", len(out))
	}
	for _, r := range out[:4] {
		if r.Site.Frame() != 0 || r.Site.Thread() != 1 {
			t.Errorf("%s: a threadless model's inject is in frame %d on thread %d, want 0 and 1", r.String(), r.Site.Frame(), r.Site.Thread())
		}
	}

	v := rec.Site.Var()
	var in []trace.Record
	for _, ft := range [][2]int32{{0, 1}, {0, 2}, {1, 1}} {
		r := rec
		r.Site = trace.NewLocalSite("main", v, ft[0], ft[1])
		in = append(in, r)
	}
	out, err = mustEngine(t, mustRule(t, workloads.RuleTrans3)).TransformAll(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		r := &out[5*i+4]
		if r.Site.Var().Root != "lSetHashingArray" || r.Site.Frame() != in[i].Site.Frame() || r.Site.Thread() != in[i].Site.Thread() {
			t.Errorf("%s: rewritten in frame %d on thread %d, want %d and %d",
				r.String(), r.Site.Frame(), r.Site.Thread(), in[i].Site.Frame(), in[i].Site.Thread())
		}
	}
}
