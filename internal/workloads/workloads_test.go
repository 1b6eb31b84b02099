package workloads

import (
	"testing"

	"tracedst/internal/minic"
	"tracedst/internal/trace"
	"tracedst/internal/tracer"
)

// TestAllNamedWorkloadsRun parses and executes every built-in workload with
// its default parameters and checks it produces an annotated trace.
func TestAllNamedWorkloadsRun(t *testing.T) {
	for name, w := range Named {
		t.Run(name, func(t *testing.T) {
			res, err := tracer.Run(w.Source, w.Defines, tracer.Options{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(res.Records) == 0 {
				t.Fatalf("%s produced an empty trace", name)
			}
			annotated := 0
			for i := range res.Records {
				if res.Records[i].HasSym {
					annotated++
				}
			}
			if annotated == 0 {
				t.Errorf("%s has no annotated records", name)
			}
			if w.About == "" {
				t.Errorf("%s has no description", name)
			}
		})
	}
}

func TestListTraversalComputesSum(t *testing.T) {
	res, err := tracer.Run(ListTraversal, map[string]string{"N": "10"}, tracer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Return != 45 {
		t.Errorf("list sum = %d, want 45", res.Return)
	}
}

func TestMatMulComputesProduct(t *testing.T) {
	// Verify numerically through memory: C[i][j] = Σ A[i][k]·B[k][j] with
	// A, B zero-initialised gives zero — instead set A=B=identity-ish via a
	// tweaked program to check the interpreter; here we only check that the
	// kernel executes and touches all three matrices.
	res, err := tracer.Run(MatMul, map[string]string{"N": "4"}, tracer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	roots := map[string]bool{}
	for i := range res.Records {
		if res.Records[i].HasSym {
			roots[res.Records[i].Site.Var().Root] = true
		}
	}
	for _, want := range []string{"A", "B", "C", "s"} {
		if !roots[want] {
			t.Errorf("matmul trace missing %s", want)
		}
	}
}

func TestParticlesLayoutsDiffer(t *testing.T) {
	aos, err := tracer.Run(ParticlesAoS, map[string]string{"N": "32"}, tracer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	soa, err := tracer.Run(ParticlesSoA, map[string]string{"N": "32"}, tracer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// AoS touches x and y of each particle 32 bytes apart per element pair;
	// SoA splits them into two distant streams. Compare footprints: both
	// touch the same number of particle bytes but different block counts.
	fa := trace.Footprint(trace.Filter(aos.Records, trace.ByVar("particles")), 32)
	fs := trace.Footprint(trace.Filter(soa.Records, trace.ByVar("particles")), 32)
	// AoS: 32 particles × 32 B stride, x/y in the first 16 bytes → every
	// 32-byte block holds one particle's x+y → 32 blocks.
	if fa != 32 {
		t.Errorf("AoS footprint = %d blocks, want 32", fa)
	}
	// SoA: two dense 256-byte streams → 16 blocks (+ up to 2 straddles).
	if fs < 16 || fs > 18 {
		t.Errorf("SoA footprint = %d blocks, want 16..18", fs)
	}
	if fs >= fa {
		t.Errorf("SoA footprint %d not denser than AoS %d for position-only updates", fs, fa)
	}
}

func TestStencilBoundaries(t *testing.T) {
	res, err := tracer.Run(Stencil, map[string]string{"N": "16"}, tracer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// dst[0] and dst[N-1] are never written.
	for i := range res.Records {
		r := &res.Records[i]
		if r.Op == trace.Store && r.HasSym && r.Site.Var().Root == "dst" {
			idx := r.Site.Var().Path[0].Index
			if idx == 0 || idx == 15 {
				t.Errorf("boundary element dst[%d] written", idx)
			}
		}
	}
}

func TestRuleGeneratorsMatchCanonical(t *testing.T) {
	if RuleTrans1ForLen(16) == "" || RuleTrans2ForLen(16) == "" {
		t.Fatal("empty generated rules")
	}
	// The generated rule at the canonical length must describe the same
	// shapes as the hand-written rule (both must parse; detailed equality
	// is covered in the rules package).
	if got := RuleTrans3ForLen(1024, 16, 8); got == "" {
		t.Fatal("empty stride rule")
	}
}

func TestWorkloadsParseStandalone(t *testing.T) {
	// The sources must be valid miniC even without the tracer.
	for name, w := range Named {
		if _, err := minic.Parse(w.Source, w.Defines); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestHistogramIndirectWrites(t *testing.T) {
	res, err := tracer.Run(Histogram, map[string]string{"N": "128", "BINS": "16"}, tracer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every iteration: M on some hist element, L on data[i]; hist[0]'s count
	// equals the number of i with (i*7919)%16 == 0.
	want := 0
	for i := 0; i < 128; i++ {
		if (i*7919)%16 == 0 {
			want++
		}
	}
	if res.Return != int64(want) {
		t.Errorf("hist[0] = %d, want %d", res.Return, want)
	}
	mods := 0
	for i := range res.Records {
		r := &res.Records[i]
		if r.Op == trace.Modify && r.HasSym && r.Site.Var().Root == "hist" {
			mods++
		}
	}
	if mods != 128 {
		t.Errorf("hist modifies = %d, want 128", mods)
	}
}

func TestBinSearchFindsKeys(t *testing.T) {
	res, err := tracer.Run(BinSearch, map[string]string{"N": "512"}, tracer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Queries (q*13)%1024: hits when even (keys are the even numbers).
	want := 0
	for q := 0; q < 64; q++ {
		if (q*13)%1024%2 == 0 {
			want++
		}
	}
	if res.Return != int64(want) {
		t.Errorf("found = %d, want %d", res.Return, want)
	}
	// The traced window must show keys accesses from find at depth 1.
	sawFind := false
	for i := range res.Records {
		if res.Records[i].Site.Func() == "find" && res.Records[i].HasSym &&
			res.Records[i].Site.Var().Root == "keys" {
			sawFind = true
			break
		}
	}
	if !sawFind {
		t.Error("no keys accesses attributed to find")
	}
}
