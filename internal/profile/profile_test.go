package profile

import (
	"strings"
	"testing"

	"tracedst/internal/ctype"
	"tracedst/internal/trace"
	"tracedst/internal/tracer"
	"tracedst/internal/workloads"
)

func fixture(t *testing.T) []trace.Record {
	t.Helper()
	_, recs, err := trace.ParseAll(`START PID 1
S 000601040 4 main GV g
L 000601040 4 main GV g
M 000601040 4 main GV g
S 7ff000010 8 foo LS 0 1 arr[0]
L 000601040 4 foo GV g
L 7ff000100 8 main
`)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestProfileCounts(t *testing.T) {
	p := New(fixture(t))
	if p.Records != 6 {
		t.Errorf("records = %d", p.Records)
	}
	main := p.Funcs["main"]
	if main == nil || main.Accesses != 4 || main.Reads != 2 || main.Writes != 1 || main.Modifies != 1 {
		t.Errorf("main = %+v", main)
	}
	if main.Bytes != 4+4+4+8 {
		t.Errorf("main bytes = %d", main.Bytes)
	}
	foo := p.Funcs["foo"]
	if foo == nil || foo.Accesses != 2 {
		t.Errorf("foo = %+v", foo)
	}
}

func TestProfileVars(t *testing.T) {
	p := New(fixture(t))
	g := p.Vars["g"]
	if g == nil || g.Accesses != 4 {
		t.Fatalf("g = %+v", g)
	}
	// g touched by both functions, sorted.
	if len(g.Funcs) != 2 || g.Funcs[0] != "foo" || g.Funcs[1] != "main" {
		t.Errorf("g funcs = %v", g.Funcs)
	}
	if g.Footprint != 1 {
		t.Errorf("g footprint = %d", g.Footprint)
	}
	if arr := p.Vars["arr"]; arr == nil || arr.Accesses != 1 || arr.Bytes != 8 {
		t.Errorf("arr = %+v", p.Vars["arr"])
	}
	// Unannotated record contributes to no variable.
	if len(p.Vars) != 2 {
		t.Errorf("vars = %d", len(p.Vars))
	}
}

func TestProfileWorkingSet(t *testing.T) {
	p := New(fixture(t))
	// Blocks: 0x601040 (g), 0x7ff000000 (arr@10..17), 0x7ff000100 → 3.
	if p.WorkingSet != 3 {
		t.Errorf("working set = %d", p.WorkingSet)
	}
}

func TestProfileTransitions(t *testing.T) {
	p := New(fixture(t))
	// main→foo once, foo→main once.
	if p.Transitions[[2]string{"main", "foo"}] != 1 ||
		p.Transitions[[2]string{"foo", "main"}] != 1 {
		t.Errorf("transitions = %v", p.Transitions)
	}
	ts := p.TopTransitions()
	if len(ts) != 2 || ts[0].From != "foo" { // equal counts → lexicographic
		t.Errorf("top transitions = %+v", ts)
	}
}

func TestProfileOrdering(t *testing.T) {
	p := New(fixture(t))
	fns := p.TopFuncs()
	if fns[0].Name != "main" || fns[1].Name != "foo" {
		t.Errorf("func order = %s, %s", fns[0].Name, fns[1].Name)
	}
	vars := p.TopVars()
	if vars[0].Name != "g" {
		t.Errorf("var order = %s", vars[0].Name)
	}
}

func TestProfileReport(t *testing.T) {
	p := New(fixture(t))
	rep := p.Report()
	for _, want := range []string{"memory profile", "functions", "variables",
		"function transitions", "main", "foo", "arr", "working set 3 blocks"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestProfileBlockSpanning(t *testing.T) {
	recs := []trace.Record{{Op: trace.Load, Addr: 30, Size: 8, Site: trace.NewSite("main", ctype.AccessExpr{})}}
	p := New(recs)
	if p.WorkingSet != 2 || p.Funcs["main"].Footprint != 2 {
		t.Errorf("spanning footprint = %d / %d", p.WorkingSet, p.Funcs["main"].Footprint)
	}
}

func TestProfileEmpty(t *testing.T) {
	p := New(nil)
	if p.Records != 0 || p.WorkingSet != 0 || len(p.TopFuncs()) != 0 {
		t.Errorf("empty profile = %+v", p)
	}
	if !strings.Contains(p.Report(), "0 records") {
		t.Error("empty report")
	}
}

func TestProfileListing1EndToEnd(t *testing.T) {
	res, err := tracer.Run(workloads.Listing1, nil, tracer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := New(res.Records)
	if p.Funcs["main"] == nil || p.Funcs["foo"] == nil {
		t.Fatal("functions missing")
	}
	// foo touches globals and main's lcStrcArray.
	gsa := p.Vars["glStructArray"]
	if gsa == nil || len(gsa.Funcs) != 1 || gsa.Funcs[0] != "foo" {
		t.Errorf("glStructArray = %+v", gsa)
	}
	lsa := p.Vars["lcStrcArray"]
	if lsa == nil || lsa.Funcs[0] != "foo" {
		t.Errorf("lcStrcArray = %+v", lsa)
	}
	// One call each way: exactly one main→foo transition.
	if p.Transitions[[2]string{"main", "foo"}] != 1 {
		t.Errorf("transitions = %v", p.Transitions)
	}
}
