package tracedst_test

import (
	"fmt"
	"strings"
	"testing"

	"tracedst"
)

const facadeProgram = `
int main(int aArgc, char **aArgv) {
	typedef struct {
		int mX[LEN];
		double mY[LEN];
	} MyStructOfArrays;
	MyStructOfArrays lSoA;
	GLEIPNIR_START_INSTRUMENTATION;
	for (int lI=0 ; lI<LEN ; lI++) {
		lSoA.mX[lI] = (int) lI;
		lSoA.mY[lI] = (double) lI;
	}
	GLEIPNIR_STOP_INSTRUMENTATION;
	return 0;
}
`

const facadeRule = `
in:
struct lSoA { int mX[8]; double mY[8]; };
out:
struct lAoS { int mX; double mY; }[8];
`

// TestFacadePipeline exercises the full public API end to end.
func TestFacadePipeline(t *testing.T) {
	res, err := tracedst.Trace(facadeProgram, map[string]string{"LEN": "8"}, tracedst.TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("empty trace")
	}

	rule, err := tracedst.ParseRule(facadeRule)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := tracedst.NewEngine(tracedst.EngineOptions{}, rule)
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.TransformAll(res.Records)
	if err != nil {
		t.Fatal(err)
	}

	d := tracedst.DiffTraces(res.Records, out)
	if d.Stats().Rewritten != 16 {
		t.Errorf("rewritten = %d", d.Stats().Rewritten)
	}

	sim, err := tracedst.Simulate(out, tracedst.Paper32KDirect())
	if err != nil {
		t.Fatal(err)
	}
	rep := sim.Report()
	if !strings.Contains(rep, "lAoS") {
		t.Errorf("report missing lAoS:\n%s", rep)
	}
	p := tracedst.PerSetPlot("facade", sim)
	if _, ok := p.SeriesByLabel("lAoS"); !ok {
		t.Error("plot missing lAoS series")
	}

	prof := tracedst.ProfileTrace(out)
	if prof.Vars["lAoS"] == nil {
		t.Error("profile missing lAoS")
	}

	// Trace round trip through the text format.
	text := tracedst.FormatTrace(res.Header, out)
	h, recs, err := tracedst.ParseTrace(text)
	if err != nil || h.PID != res.Header.PID || len(recs) != len(out) {
		t.Errorf("round trip: %v %d %v", h, len(recs), err)
	}
}

func TestFacadeConfigs(t *testing.T) {
	if tracedst.Paper32KDirect().Sets() != 1024 {
		t.Error("Paper32KDirect geometry")
	}
	if tracedst.PowerPC440().Sets() != 16 {
		t.Error("PowerPC440 geometry")
	}
}

func TestFacadeSimulateWith(t *testing.T) {
	res, err := tracedst.Trace(`int g; int main(void){ g = 1; return g; }`, nil,
		tracedst.TraceOptions{TraceAll: true})
	if err != nil {
		t.Fatal(err)
	}
	l2 := tracedst.CacheConfig{Name: "l2", Size: 256 * 1024, BlockSize: 64, Assoc: 8}
	sim, err := tracedst.SimulateWith(res.Records, tracedst.SimOptions{
		L1: tracedst.Paper32KDirect(),
		L2: &l2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sim.L2() == nil || sim.L2().Stats().Reads == 0 {
		t.Error("L2 unused")
	}
}

func ExampleTrace() {
	res, _ := tracedst.Trace(`
int g;
int main(void) {
	GLEIPNIR_START_INSTRUMENTATION;
	g = 7;
	GLEIPNIR_STOP_INSTRUMENTATION;
	return g;
}`, nil, tracedst.TraceOptions{})
	fmt.Println(res.Records[len(res.Records)-1].Site.Var().Root)
	// Output: g
}
