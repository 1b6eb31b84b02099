package tracediff

import (
	"strings"
	"testing"
	"testing/quick"

	"tracedst/internal/ctype"
	"tracedst/internal/rules"
	"tracedst/internal/trace"
	"tracedst/internal/tracer"
	"tracedst/internal/workloads"
	"tracedst/internal/xform"
)

func recsOf(t *testing.T, lines ...string) []trace.Record {
	t.Helper()
	out := make([]trace.Record, len(lines))
	for i, l := range lines {
		r, err := trace.ParseRecord(l)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = r
	}
	return out
}

func TestDiffIdentical(t *testing.T) {
	a := recsOf(t,
		"S 000601040 4 main GV g",
		"L 000601040 4 main GV g",
	)
	d := New(a, a)
	st := d.Stats()
	if st.Same != 2 || st.Rewritten+st.Inserted+st.Deleted != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDiffRewrite(t *testing.T) {
	a := recsOf(t,
		"L 7ff000001 4 main LV 0 1 i",
		"S 7ff000100 4 main LS 0 1 a[0]",
		"L 7ff000001 4 main LV 0 1 i",
	)
	b := recsOf(t,
		"L 7ff000001 4 main LV 0 1 i",
		"S 7ff000200 4 main LS 0 1 b[0]",
		"L 7ff000001 4 main LV 0 1 i",
	)
	d := New(a, b)
	st := d.Stats()
	if st.Same != 2 || st.Rewritten != 1 {
		t.Errorf("stats = %+v rows=%+v", st, d.Rows)
	}
	cv := d.ChangedVariables()
	if cv["b"] != 1 || len(cv) != 1 {
		t.Errorf("changed vars = %v", cv)
	}
}

func TestDiffInsertion(t *testing.T) {
	a := recsOf(t,
		"L 7ff000001 4 main LV 0 1 i",
		"S 7ff000100 4 main LS 0 1 a[0]",
	)
	b := recsOf(t,
		"L 7ff000001 4 main LV 0 1 i",
		"L 7ff000300 8 main LS 0 1 p[0].q",
		"S 7ff000100 4 main LS 0 1 a[0]",
	)
	d := New(a, b)
	st := d.Stats()
	if st.Same != 2 || st.Inserted != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDiffDeletion(t *testing.T) {
	a := recsOf(t,
		"L 7ff000001 4 main LV 0 1 i",
		"S 7ff000100 4 main LS 0 1 a[0]",
	)
	b := recsOf(t, "L 7ff000001 4 main LV 0 1 i")
	d := New(a, b)
	if st := d.Stats(); st.Deleted != 1 || st.Same != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDiffEmpty(t *testing.T) {
	d := New(nil, nil)
	if len(d.Rows) != 0 {
		t.Errorf("rows = %+v", d.Rows)
	}
	b := recsOf(t, "L 7ff000001 4 main LV 0 1 i")
	if st := New(nil, b).Stats(); st.Inserted != 1 {
		t.Errorf("insert-only stats = %+v", st)
	}
	if st := New(b, nil).Stats(); st.Deleted != 1 {
		t.Errorf("delete-only stats = %+v", st)
	}
}

func TestSideBySideRendering(t *testing.T) {
	a := recsOf(t, "S 7ff000100 4 main LS 0 1 a[0]")
	b := recsOf(t,
		"L 7ff000300 8 main LS 0 1 p[0].q",
		"S 7ff000200 4 main LS 0 1 b[0]",
	)
	out := New(a, b).SideBySide(40)
	if !strings.Contains(out, "=>") || !strings.Contains(out, "++") {
		t.Errorf("side by side:\n%s", out)
	}
}

// TestFig5Diff: the T1 diff must consist of rewrites only (same line count,
// as Figure 5 shows).
func TestFig5Diff(t *testing.T) {
	res, err := tracer.Run(workloads.Trans1SoA, map[string]string{"LEN": "16"}, tracer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rule, err := rules.Parse(workloads.RuleTrans1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := xform.New(xform.Options{}, rule)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.TransformAll(res.Records)
	if err != nil {
		t.Fatal(err)
	}
	d := New(res.Records, got)
	st := d.Stats()
	if st.Inserted != 0 || st.Deleted != 0 {
		t.Errorf("T1 diff has insertions/deletions: %+v", st)
	}
	if st.Rewritten != 32 {
		t.Errorf("rewritten = %d, want 32 (16 mX + 16 mY)", st.Rewritten)
	}
	cv := d.ChangedVariables()
	if cv["lAoS"] != 32 {
		t.Errorf("changed vars = %v", cv)
	}
}

// TestFig8Diff: the T2 diff shows 32 rewrites (nested accesses) + 16
// rewrites (mFrequentlyUsed) and 32 insertions (pointer loads).
func TestFig8Diff(t *testing.T) {
	res, err := tracer.Run(workloads.Trans2Inline, map[string]string{"LEN": "16"}, tracer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rule, err := rules.Parse(workloads.RuleTrans2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := xform.New(xform.Options{}, rule)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.TransformAll(res.Records)
	if err != nil {
		t.Fatal(err)
	}
	st := New(res.Records, got).Stats()
	if st.Inserted != 32 {
		t.Errorf("inserted = %d, want 32 pointer loads", st.Inserted)
	}
	if st.Rewritten != 48 {
		t.Errorf("rewritten = %d, want 48", st.Rewritten)
	}
	if st.Deleted != 0 {
		t.Errorf("deleted = %d", st.Deleted)
	}
}

func TestOpKindString(t *testing.T) {
	if Same.String() != "same" || Rewritten.String() != "rewritten" ||
		Inserted.String() != "inserted" || Deleted.String() != "deleted" {
		t.Error("OpKind strings")
	}
}

// Property: diff row counts are consistent with input lengths:
// same+rewritten+deleted == len(A), same+rewritten+inserted == len(B).
func TestDiffCountInvariant(t *testing.T) {
	mk := func(words []uint8) []trace.Record {
		recs := make([]trace.Record, len(words))
		for i, w := range words {
			recs[i] = trace.Record{
				Op:   trace.Load,
				Addr: uint64(w%8) * 32,
				Size: 4,
				Site: trace.NewSite("main", ctype.AccessExpr{}),
			}
		}
		return recs
	}
	f := func(aw, bw []uint8) bool {
		if len(aw) > 40 {
			aw = aw[:40]
		}
		if len(bw) > 40 {
			bw = bw[:40]
		}
		a, b := mk(aw), mk(bw)
		st := New(a, b).Stats()
		return st.Same+st.Rewritten+st.Deleted == len(a) &&
			st.Same+st.Rewritten+st.Inserted == len(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
