package analysis

import (
	"strings"
	"testing"
	"testing/quick"

	"tracedst/internal/cache"
	"tracedst/internal/ctype"
	"tracedst/internal/trace"
	"tracedst/internal/tracer"
	"tracedst/internal/workloads"
)

func mkAccess(addr uint64) trace.Record {
	return trace.Record{Op: trace.Load, Addr: addr, Size: 4, Site: trace.NewSite("main", ctype.AccessExpr{})}
}

func TestReuseHandComputed(t *testing.T) {
	// Block sequence (32-byte blocks): A B A C B A
	recs := []trace.Record{
		mkAccess(0),  // A cold
		mkAccess(32), // B cold
		mkAccess(0),  // A dist 1 (B)
		mkAccess(64), // C cold
		mkAccess(32), // B dist 2 (A, C)
		mkAccess(0),  // A dist 2 (C, B)
	}
	r := ReuseDistances(recs, 32)
	if r.Accesses != 6 || r.Cold != 3 {
		t.Fatalf("accesses=%d cold=%d", r.Accesses, r.Cold)
	}
	// Distances: 1, 2, 2 → bucket[1] = 1, bucket[2] = 2.
	if r.Buckets[1] != 1 || r.Buckets[2] != 2 {
		t.Errorf("buckets = %v", r.Buckets)
	}
	if r.MaxDist != 2 {
		t.Errorf("max = %d", r.MaxDist)
	}
	// Capacity 3 holds everything: only cold misses → 3/6.
	if got := r.MissRatio(3); got != 0.5 {
		t.Errorf("miss ratio cap=3: %v", got)
	}
	// Capacity 2: distance-2 accesses miss → (3 cold + 2)/6.
	if got := r.MissRatio(2); got != 5.0/6.0 {
		t.Errorf("miss ratio cap=2: %v", got)
	}
	// Capacity 1: everything but distance-0 misses → 6/6.
	if got := r.MissRatio(1); got != 1.0 {
		t.Errorf("miss ratio cap=1: %v", got)
	}
}

func TestReuseImmediateRepeat(t *testing.T) {
	recs := []trace.Record{mkAccess(0), mkAccess(4), mkAccess(8)}
	r := ReuseDistances(recs, 32)
	// Same block three times: distances 0, 0.
	if r.Cold != 1 || r.Buckets[0] != 2 {
		t.Errorf("cold=%d buckets=%v", r.Cold, r.Buckets)
	}
	if got := r.MissRatio(1); got != 1.0/3.0 {
		t.Errorf("cap=1 ratio = %v", got)
	}
}

func TestReuseBlockSpanning(t *testing.T) {
	// An 8-byte access at block boundary touches two blocks.
	recs := []trace.Record{{Op: trace.Load, Addr: 28, Size: 8, Site: trace.NewSite("main", ctype.AccessExpr{})}}
	r := ReuseDistances(recs, 32)
	if r.Accesses != 2 || r.Cold != 2 {
		t.Errorf("accesses=%d cold=%d", r.Accesses, r.Cold)
	}
}

func TestReuseMiscIgnored(t *testing.T) {
	recs := []trace.Record{{Op: trace.Misc, Addr: 0, Size: 4, Site: trace.NewSite("main", ctype.AccessExpr{})}}
	r := ReuseDistances(recs, 32)
	if r.Accesses != 0 {
		t.Errorf("misc counted: %+v", r)
	}
}

func TestReuseHistogramRendering(t *testing.T) {
	res, err := tracer.Run(workloads.Stencil, map[string]string{"N": "256"}, tracer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := ReuseDistances(res.Records, 32)
	h := r.Histogram()
	if !strings.Contains(h, "dist inf") || !strings.Contains(h, "32-byte blocks") {
		t.Errorf("histogram:\n%s", h)
	}
	curve := r.MissRatioCurve([]int64{1, 8, 64, 1 << 20})
	for i := 1; i < len(curve); i++ {
		if curve[i] > curve[i-1] {
			t.Errorf("miss-ratio curve not monotone: %v", curve)
		}
	}
}

// TestReuseMatchesFullyAssociativeLRU cross-validates the reuse profiler
// against the cache simulator: for a fully-associative LRU cache of C
// blocks, misses == cold accesses + accesses with stack distance ≥ C.
func TestReuseMatchesFullyAssociativeLRU(t *testing.T) {
	res, err := tracer.Run(workloads.MatMul, map[string]string{"N": "8"}, tracer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const blockSize = 32
	r := ReuseDistances(res.Records, blockSize)
	for _, capBlocks := range []int64{4, 8, 16, 64} {
		cfg := cache.Config{
			Size:      capBlocks * blockSize,
			BlockSize: blockSize,
			Assoc:     0, // fully associative
			Repl:      cache.ReplLRU,
		}
		c, err := cache.New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		var accesses, misses int64
		for i := range res.Records {
			rec := &res.Records[i]
			if rec.Op == trace.Misc {
				continue
			}
			// Match the reuse profiler's touch model: one access per block
			// touched, reads and writes alike, modifies once.
			first := rec.Addr / blockSize
			last := (rec.End() - 1) / blockSize
			for b := first; b <= last; b++ {
				out := c.Access(cache.Read, b*blockSize, 1, cache.NoOwner, nil)
				accesses++
				if !out[0].Hit {
					misses++
				}
			}
		}
		wantRatio := r.MissRatio(capBlocks)
		gotRatio := float64(misses) / float64(accesses)
		if wantRatio != gotRatio {
			t.Errorf("capacity %d blocks: reuse predicts %.6f, simulator measured %.6f",
				capBlocks, wantRatio, gotRatio)
		}
	}
}

// Property: the profiler's total accounting always balances.
func TestReuseAccountingProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		recs := make([]trace.Record, len(addrs))
		for i, a := range addrs {
			recs[i] = mkAccess(uint64(a))
		}
		r := ReuseDistances(recs, 64)
		var bucketed int64
		for _, n := range r.Buckets {
			bucketed += n
		}
		return bucketed+r.Cold == r.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSortInt32(t *testing.T) {
	f := func(raw []int32) bool {
		a := append([]int32{}, raw...)
		sortInt32(a)
		for i := 1; i < len(a); i++ {
			if a[i] < a[i-1] {
				return false
			}
		}
		return len(a) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
