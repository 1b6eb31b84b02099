package xform

import (
	"testing"

	"tracedst/internal/cache"
	"tracedst/internal/dinero"
	"tracedst/internal/trace"
	"tracedst/internal/tracer"
)

// Array padding is expressible as a stride rule with formula i + i/K: every
// K elements an extra slot is skipped, shifting subsequent elements by one.
// The classic use case is a power-of-two row stride that makes a column
// walk hit a single cache set; padding spreads the column across sets.
const paddingProgram = `
int m[4096];

int main(void) {
	int sum;
	GLEIPNIR_START_INSTRUMENTATION;
	sum = 0;
	for (int r = 0; r < 16; r++) {         // walk one column of a 64x64 matrix
		for (int c = 0; c < 64; c++) {
			sum += m[c*64 + r];
		}
	}
	GLEIPNIR_STOP_INSTRUMENTATION;
	return sum;
}
`

// Pad one cache line (8 ints) per 64-element row, so each row starts one
// set later: element index i moves to i + (i/64)*8.
const paddingRule = `
in:
int m[4096]:mPadded;
out:
int mPadded[4600 (i + (i/64)*8)];
`

func TestArrayPaddingViaStrideRule(t *testing.T) {
	res, err := tracer.Run(paddingProgram, nil, tracer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := mustEngine(t, mustRule(t, paddingRule))
	padded, err := eng.TransformAll(res.Records)
	if err != nil {
		t.Fatal(err)
	}

	// Column walk on an 8 KB direct-mapped cache (256 sets of 32 B). The
	// unpadded row stride of 64 ints = 8 blocks folds the 64 column blocks
	// onto 32 sets (two blocks per set, one way): every walk ping-pongs and
	// essentially all 1024 accesses miss. Padded by one line per row the
	// stride becomes 9 blocks, coprime to 256: the column spreads over 64
	// distinct sets and row-to-row reuse turns into hits.
	cfg := cache.Config{Size: 8192, BlockSize: 32, Assoc: 1}
	miss := func(recs []trace.Record, root string) int64 {
		sim, err := dinero.New(dinero.Options{L1: cfg})
		if err != nil {
			t.Fatal(err)
		}
		sim.Process(recs)
		return sim.Var(root).Misses
	}
	before := miss(res.Records, "m")
	after := miss(padded, "mPadded")
	// Unpadded: near-total thrash.
	if before < 1000 {
		t.Errorf("unpadded column-walk misses = %d, want ~1024 (thrash)", before)
	}
	// Padded: only the cold fills remain — two distinct block groups
	// (r 0-7 and r 8-15) × 64 blocks = 128 compulsory misses.
	if after != 128 {
		t.Errorf("padded misses = %d, want 128 (cold only)", after)
	}

	// The padded layout must spread the column across 64 distinct sets.
	sim, err := dinero.New(dinero.Options{L1: cfg})
	if err != nil {
		t.Fatal(err)
	}
	sim.Process(padded)
	occupied := 0
	for _, ps := range sim.Var("mPadded").PerSet {
		if ps.Hits+ps.Misses > 0 {
			occupied++
		}
	}
	if occupied < 64 {
		t.Errorf("padded column walk occupies %d sets, want ≥ 64", occupied)
	}

	// Index mapping sanity: addresses must follow the formula exactly.
	for i := range padded {
		if padded[i].HasSym && padded[i].Site.Var().Root == "mPadded" {
			idx := padded[i].Site.Var().Path[0].Index
			base, _ := eng.OutBase("mPadded")
			if padded[i].Addr != base+uint64(idx*4) {
				t.Fatalf("address inconsistent at index %d", idx)
			}
		}
	}
}
