package xform

import (
	"strings"
	"testing"

	"tracedst/internal/memmodel"
	"tracedst/internal/trace"
	"tracedst/internal/tracer"
)

// The paper's §VI lists dynamic (heap) data structures as future work:
// "Due to the nature of the tracing tool we can apply our transformations
// to static data structures only." Our tracer retypes malloc blocks from
// the pointer they are assigned to, so heap-allocated arrays of structures
// carry full debug paths (heap_main_1[i].field) and the same rules apply.
const heapProgram = `
typedef struct { int mX; double mY; } Rec;

int main(void) {
	Rec *recs;
	recs = malloc(16 * sizeof(Rec));
	GLEIPNIR_START_INSTRUMENTATION;
	for (int i = 0; i < 16; i++) {
		recs[i].mX = i;
		recs[i].mY = i;
	}
	GLEIPNIR_STOP_INSTRUMENTATION;
	free(recs);
	return 0;
}
`

// The heap block's debug name is its allocation site; the rule targets it
// directly (AoS → SoA on a malloc'd array).
const heapRule = `
in:
struct heap_main_1 {
	int mX;
	double mY;
}[16];
out:
struct heapSoA {
	int mX[16];
	double mY[16];
};
`

func TestHeapStructureTransformation(t *testing.T) {
	res, err := tracer.Run(heapProgram, nil, tracer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the heap accesses are annotated with element paths.
	sawHeap := false
	for i := range res.Records {
		r := &res.Records[i]
		if r.HasSym && r.Site.Var().Root == "heap_main_1" {
			sawHeap = true
			if r.Vis != trace.Global {
				t.Errorf("heap record not globally visible: %s", r.String())
			}
			if memmodel.RegionOf(r.Addr) != "heap" {
				t.Errorf("heap record outside heap region: %s", r.String())
			}
		}
	}
	if !sawHeap {
		t.Fatal("no annotated heap accesses in trace")
	}

	eng := mustEngine(t, mustRule(t, heapRule))
	got, err := eng.TransformAll(res.Records)
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	for i := range got {
		if got[i].HasSym {
			text.WriteString(got[i].Site.Var().String())
			text.WriteByte('\n')
		}
	}
	for _, want := range []string{"heapSoA.mX[0]", "heapSoA.mY[15]"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("missing %q", want)
		}
	}
	if strings.Contains(text.String(), "heap_main_1") {
		t.Error("heap_main_1 survived the transformation")
	}
	// SoA layout: mX elements 4 apart, mY block after all mX.
	var x0, x1, y0 uint64
	for i := range got {
		if !got[i].HasSym {
			continue
		}
		switch got[i].Site.Var().String() {
		case "heapSoA.mX[0]":
			x0 = got[i].Addr
		case "heapSoA.mX[1]":
			x1 = got[i].Addr
		case "heapSoA.mY[0]":
			y0 = got[i].Addr
		}
	}
	if x1-x0 != 4 || y0-x0 != 64 {
		t.Errorf("SoA layout: mX stride %d (want 4), mY offset %d (want 64)", x1-x0, y0-x0)
	}
	if eng.Stats().Matched != 32 {
		t.Errorf("matched = %d", eng.Stats().Matched)
	}
}
