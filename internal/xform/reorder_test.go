package xform

import (
	"testing"

	"tracedst/internal/cache"
	"tracedst/internal/dinero"
	"tracedst/internal/trace"
	"tracedst/internal/tracer"
)

// Field reordering is expressible as a struct-remap rule whose in and out
// sides are both arrays of structs with the same members in a different
// order — hot members first packs them at lower offsets (and removes
// padding holes).
const reorderRule = `
in:
struct lRec {
	char tag;
	double weight;
	int hot;
}[32];
out:
struct lRec2 {
	int hot;
	char tag;
	double weight;
}[32];
`

const reorderProgram = `
typedef struct { char tag; double weight; int hot; } Rec;
Rec lRec[32];

int main(void) {
	int sum;
	GLEIPNIR_START_INSTRUMENTATION;
	sum = 0;
	for (int i = 0; i < 32; i++) {
		sum += lRec[i].hot;
	}
	GLEIPNIR_STOP_INSTRUMENTATION;
	return sum;
}
`

func TestFieldReorderingRemap(t *testing.T) {
	res, err := tracer.Run(reorderProgram, nil, tracer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := mustEngine(t, mustRule(t, reorderRule))
	got, err := eng.TransformAll(res.Records)
	if err != nil {
		t.Fatal(err)
	}
	// In-struct: char@0, double@8, int@16, size 24. Out: int@0, char@4,
	// double@8, size 16. The hot member moves from offset 16 to 0 and the
	// element stride shrinks from 24 to 16.
	var h0, h1 uint64
	for i := range got {
		if got[i].HasSym {
			switch got[i].Site.Var().String() {
			case "lRec2[0].hot":
				h0 = got[i].Addr
			case "lRec2[1].hot":
				h1 = got[i].Addr
			}
		}
	}
	if h0 == 0 || h1 == 0 {
		t.Fatal("reordered accesses missing")
	}
	if h1-h0 != 16 {
		t.Errorf("element stride = %d, want 16 (was 24)", h1-h0)
	}

	// Density payoff: the hot sweep misses fewer blocks after reordering.
	sim := func(recs []trace.Record) int64 {
		s, err := dinero.New(dinero.Options{L1: cache.Config{Size: 256, BlockSize: 32, Assoc: 2}})
		if err != nil {
			t.Fatal(err)
		}
		s.Process(recs)
		return s.L1().Stats().Misses()
	}
	before, after := sim(res.Records), sim(got)
	// 32 hot ints: inline stride 24 → 32×24=768 B = 24 blocks; packed
	// stride 16 → 512 B = 16 blocks. Fewer blocks ⇒ fewer cold misses.
	if after >= before {
		t.Errorf("misses: before %d, after %d — reordering should reduce them", before, after)
	}
}
