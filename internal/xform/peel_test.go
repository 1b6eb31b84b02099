package xform

import (
	"strings"
	"testing"

	"tracedst/internal/cache"
	"tracedst/internal/dinero"
	"tracedst/internal/rules"
	"tracedst/internal/trace"
	"tracedst/internal/tracer"
)

const peelRule = `
in:
struct lRec {
	int hot;
	double cold1;
	double cold2;
}[64];
out:
struct lHot {
	int hot;
}[64];
struct lCold {
	double cold1;
	double cold2;
}[64];
`

const peelProgram = `
typedef struct { int hot; double cold1; double cold2; } Rec;
Rec lRec[64];

int main(void) {
	int sum;
	GLEIPNIR_START_INSTRUMENTATION;
	sum = 0;
	for (int i = 0; i < 64; i++) {
		sum += lRec[i].hot;
	}
	lRec[0].cold1 = 1.5;
	GLEIPNIR_STOP_INSTRUMENTATION;
	return sum;
}
`

func TestPeelRuleParses(t *testing.T) {
	r, err := rules.Parse(peelRule)
	if err != nil {
		t.Fatal(err)
	}
	pr, ok := r.(*rules.PeelRule)
	if !ok {
		t.Fatalf("kind = %v", r.Kind())
	}
	if pr.Kind().String() != "peel" {
		t.Errorf("kind string = %s", pr.Kind())
	}
	if pr.InRoot() != "lRec" || pr.OutRoot() != "lHot" {
		t.Errorf("roots = %s → %s", pr.InRoot(), pr.OutRoot())
	}
	if len(pr.Groups) != 2 || pr.ByField["hot"] != 0 || pr.ByField["cold1"] != 1 || pr.ByField["cold2"] != 1 {
		t.Errorf("groups = %+v byField=%v", pr.Groups, pr.ByField)
	}
	// lHot: 64×4 = 256 B; lCold: 64×16 = 1024 B.
	if rules.OutSize(pr) != 256+1024 {
		t.Errorf("out size = %d", rules.OutSize(pr))
	}
	if rules.InSize(pr) != 64*24 {
		t.Errorf("in size = %d", rules.InSize(pr))
	}
}

func TestPeelRuleErrors(t *testing.T) {
	cases := map[string]string{
		"member in two groups": `
in:
struct a { int x; int y; }[4];
out:
struct g1 { int x; }[4];
struct g2 { int x; int y; }[4];`,
		"member unassigned": `
in:
struct a { int x; int y; }[4];
out:
struct g1 { int x; }[4];
struct g2 { int x2; }[4];`,
		"length mismatch": `
in:
struct a { int x; int y; }[4];
out:
struct g1 { int x; }[8];
struct g2 { int y; }[4];`,
		"scalar in shape": `
in:
struct a { int x; int y; };
out:
struct g1 { int x; }[4];
struct g2 { int y; }[4];`,
	}
	for name, src := range cases {
		if _, err := rules.Parse(src); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestPeelTransform(t *testing.T) {
	res, err := tracer.Run(peelProgram, nil, tracer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := mustEngine(t, mustRule(t, peelRule))
	got, err := eng.TransformAll(res.Records)
	if err != nil {
		t.Fatal(err)
	}
	// No insertions — peeling is a pure address remap.
	if len(got) != len(res.Records) {
		t.Fatalf("record count changed: %d → %d", len(res.Records), len(got))
	}
	text := strings.Builder{}
	for i := range got {
		if got[i].HasSym {
			text.WriteString(got[i].Site.Var().String())
			text.WriteByte('\n')
		}
	}
	for _, want := range []string{"lHot[0].hot", "lHot[63].hot", "lCold[0].cold1"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("missing %q", want)
		}
	}
	if strings.Contains(text.String(), "lRec") {
		t.Error("lRec survived peeling")
	}

	// Layout: hot elements 4 bytes apart in the peeled array (24 before).
	var h0, h1, c0 uint64
	for i := range got {
		if !got[i].HasSym {
			continue
		}
		switch got[i].Site.Var().String() {
		case "lHot[0].hot":
			h0 = got[i].Addr
		case "lHot[1].hot":
			h1 = got[i].Addr
		case "lCold[0].cold1":
			c0 = got[i].Addr
		}
	}
	if h1-h0 != 4 {
		t.Errorf("hot stride = %d, want 4", h1-h0)
	}
	// lRec is a global (data segment): the cold group is placed above the
	// hot group, past its end.
	if c0 < h0+64*4 {
		t.Errorf("cold group at %#x overlaps hot group at %#x", c0, h0)
	}

	// Density payoff: a tiny cache holds all peeled hot data.
	cfg := cache.Config{Size: 256, BlockSize: 32, Assoc: 1}
	miss := func(recs []trace.Record) int64 {
		s, err := dinero.New(dinero.Options{L1: cfg})
		if err != nil {
			t.Fatal(err)
		}
		s.Process(recs)
		return s.L1().Stats().Misses()
	}
	if b, a := miss(res.Records), miss(got); a >= b {
		t.Errorf("peeling did not reduce misses: %d → %d", b, a)
	}
}

func TestPeelGlobalGroupsAbove(t *testing.T) {
	rule := mustRule(t, `
in:
struct gRec { int x; int y; }[4];
out:
struct gX { int x; }[4];
struct gY { int y; }[4];
`)
	eng := mustEngine(t, rule)
	rec, _ := trace.ParseRecord("S 000601040 4 main GS gRec[0].x")
	out, err := eng.Transform(&rec)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Site.Var().String() != "gX[0].x" {
		t.Errorf("out = %s", out[0].Site.Var().String())
	}
	x, _ := eng.OutBase("gX")
	y, ok := eng.OutBase("gY")
	if !ok || y <= x {
		t.Errorf("global peel group gY at %#x not above gX at %#x", y, x)
	}
}

func TestPeelNonConformingPassThrough(t *testing.T) {
	eng := mustEngine(t, mustRule(t, peelRule))
	rec, _ := trace.ParseRecord("L 7ff000100 8 main LS 0 1 lRec")
	out, err := eng.Transform(&rec)
	if err != nil || len(out) != 1 || !out[0].Equal(&rec) {
		t.Errorf("whole-struct access altered: %+v err=%v", out, err)
	}
}
