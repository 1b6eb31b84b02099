package experiments

import (
	"context"
	"strings"
	"testing"

	"tracedst/internal/analysis"
)

func runFig(t *testing.T, id string) *Result {
	t.Helper()
	rs, err := Figures(context.Background(), RunOptions{}, id)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return rs[0]
}

func TestIDsOrdered(t *testing.T) {
	want := []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("ids = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ids[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestRunUnknown(t *testing.T) {
	ran := false
	rs, err := Figures(context.Background(), RunOptions{Policy: RunPolicy{afterTask: func(int) { ran = true }}},
		"fig3", "fig99")
	if err == nil {
		t.Fatal("unknown figure accepted")
	}
	if want := `experiments: unknown figure "fig99" (known: [fig3 fig4`; !strings.HasPrefix(err.Error(), want) {
		t.Errorf("err = %q, want prefix %q", err, want)
	}
	if rs != nil || ran {
		t.Error("figures ran before the unknown id was rejected")
	}
}

// TestFig3Fig4Shape: the transformation must interleave mX and mY traffic.
// In the SoA layout the structure's sets split into an mX cluster and an mY
// cluster with different per-set counts; in the AoS layout every structure
// set sees the same traffic (the paper's "more uniformly accessed pattern
// observed in Figure 4").
func TestFig3Fig4Shape(t *testing.T) {
	f3, f4 := runFig(t, "fig3"), runFig(t, "fig4")

	spread := func(p *analysis.Plot, label string) (min, max int64) {
		s, ok := p.SeriesByLabel(label)
		if !ok {
			t.Fatalf("series %s missing", label)
		}
		min = -1
		for i := range s.Hits {
			tot := s.Hits[i] + s.Misses[i]
			if tot == 0 {
				continue
			}
			if min < 0 || tot < min {
				min = tot
			}
			if tot > max {
				max = tot
			}
		}
		return min, max
	}
	soaMin, soaMax := spread(f3.Plot, "lSoA")
	aosMin, aosMax := spread(f4.Plot, "lAoS")
	// SoA: mX sets see 8 accesses per 32B block, mY sets see 4 — uneven.
	if soaMin == soaMax {
		t.Errorf("SoA per-set counts unexpectedly uniform (%d)", soaMin)
	}
	// AoS: interior sets uniform (2 structs per block → 4 accesses); edge
	// blocks may differ due to alignment straddle, so compare spread ratio.
	soaSpread := float64(soaMax) / float64(soaMin)
	aosSpread := float64(aosMax) / float64(aosMin)
	if aosSpread > soaSpread {
		t.Errorf("AoS spread %.2f not tighter than SoA %.2f", aosSpread, soaSpread)
	}
}

func TestFig5DiffShape(t *testing.T) {
	r := runFig(t, "fig5")
	if r.Diff == nil {
		t.Fatal("no diff")
	}
	st := r.Diff.Stats()
	if st.Rewritten != 2*LenT1 || st.Inserted != 0 || st.Deleted != 0 {
		t.Errorf("T1 diff = %+v", st)
	}
}

func TestFig7IndirectionLoads(t *testing.T) {
	f6, f7 := runFig(t, "fig6"), runFig(t, "fig7")
	if f7.Records != f6.Records+2*LenT2 {
		t.Errorf("records %d → %d, want +%d pointer loads", f6.Records, f7.Records, 2*LenT2)
	}
	if _, ok := f7.Plot.SeriesByLabel("lStorageForRarelyUsed"); !ok {
		t.Error("pool series missing in fig7")
	}
	if _, ok := f7.Plot.SeriesByLabel("lS1"); ok {
		t.Error("lS1 survived transformation in fig7")
	}
}

func TestFig8DiffShape(t *testing.T) {
	st := runFig(t, "fig8").Diff.Stats()
	if st.Inserted != 2*LenT2 {
		t.Errorf("inserted = %d, want %d", st.Inserted, 2*LenT2)
	}
}

func TestFig9DiffShape(t *testing.T) {
	st := runFig(t, "fig9").Diff.Stats()
	if st.Inserted != 4*LenT3 {
		t.Errorf("inserted = %d, want %d", st.Inserted, 4*LenT3)
	}
	if st.Rewritten < LenT3 {
		t.Errorf("rewritten = %d, want ≥ %d", st.Rewritten, LenT3)
	}
}

// TestFig10Fig11Pinning is the headline claim of transformation 3: the
// contiguous sweep touches all 16 sets; the strided version pins the array
// to a single set.
func TestFig10Fig11Pinning(t *testing.T) {
	f10, f11 := runFig(t, "fig10"), runFig(t, "fig11")

	s10, ok := f10.Plot.SeriesByLabel("lContiguousArray")
	if !ok {
		t.Fatal("lContiguousArray missing")
	}
	occ10 := analysis.OccupancyOf(s10)
	if occ10.SetsTouched != 16 {
		t.Errorf("contiguous array touches %d sets, want 16", occ10.SetsTouched)
	}

	s11, ok := f11.Plot.SeriesByLabel("lSetHashingArray")
	if !ok {
		t.Fatal("lSetHashingArray missing")
	}
	occ11 := analysis.OccupancyOf(s11)
	if occ11.SetsTouched != 1 || occ11.DominantShare != 1.0 {
		t.Errorf("pinned array occupancy = %+v, want a single set", occ11)
	}
	// Same miss count for the array data ("maintaining the same amount of
	// cache misses for the array structure"): both sweeps are cold-miss
	// sequences over 128 distinct blocks.
	if occ10.Misses != occ11.Misses {
		t.Errorf("misses: contiguous %d vs pinned %d", occ10.Misses, occ11.Misses)
	}
	// The injected arithmetic must appear in fig11.
	if _, ok := f11.Plot.SeriesByLabel("ITEMSPERLINE"); !ok {
		t.Error("ITEMSPERLINE series missing in fig11")
	}
}

func TestAllFiguresRun(t *testing.T) {
	rs, err := Figures(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 9 {
		t.Fatalf("got %d results", len(rs))
	}
	for _, r := range rs {
		if len(r.Notes) == 0 {
			t.Errorf("%s has no notes", r.ID)
		}
		if r.Plot == nil && r.Diff == nil {
			t.Errorf("%s has neither plot nor diff", r.ID)
		}
		if r.Records == 0 {
			t.Errorf("%s has no records", r.ID)
		}
		for _, n := range r.Notes {
			if strings.Contains(n, "absent") {
				t.Errorf("%s: %s", r.ID, n)
			}
		}
	}
}

func TestSweepsRun(t *testing.T) {
	ss, err := Sweeps(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 4 {
		t.Fatalf("sweeps = %d", len(ss))
	}
	for _, s := range ss {
		if len(s.Points) == 0 {
			t.Errorf("%s has no points", s.ID)
		}
		// Misses must be non-increasing with cache size for LRU sweeps
		// (T3 uses round-robin, where this still holds for these simple
		// sweep traces).
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].MissesOrig > s.Points[i-1].MissesOrig {
				t.Errorf("%s: orig misses increased with size at %d bytes",
					s.ID, s.Points[i].CacheBytes)
			}
		}
		if !strings.Contains(s.Table(), "cache bytes") {
			t.Errorf("%s table malformed", s.ID)
		}
	}
}

func TestSweepWinnerMarks(t *testing.T) {
	s := &SweepResult{Points: []SweepPoint{
		{MissesOrig: 5, MissesXform: 3},
		{MissesOrig: 2, MissesXform: 4},
		{MissesOrig: 1, MissesXform: 1},
	}}
	if s.Winner(0) != '>' || s.Winner(1) != '<' || s.Winner(2) != '=' {
		t.Errorf("winners = %c %c %c", s.Winner(0), s.Winner(1), s.Winner(2))
	}
}
