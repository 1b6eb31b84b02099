package cache

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestScaledInvariants: scaling must preserve the structural identities
// Reads == ReadHits + ReadMisses and Writes == WriteHits + WriteMisses for
// every factor — independent per-field rounding used to drift them apart
// by ±1.
func TestScaledInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	factors := []float64{1, 2, 4, 8, 1.5, 3.75, 7.9999, 16.0001, 1024}
	for trial := 0; trial < 2000; trial++ {
		s := Stats{
			Reads:  rng.Int63n(1_000_000),
			Writes: rng.Int63n(1_000_000),
		}
		s.ReadMisses = rng.Int63n(s.Reads + 1)
		s.ReadHits = s.Reads - s.ReadMisses
		s.WriteMisses = rng.Int63n(s.Writes + 1)
		s.WriteHits = s.Writes - s.WriteMisses
		f := factors[trial%len(factors)]
		out := s.Scaled(f)
		if out.Reads != out.ReadHits+out.ReadMisses {
			t.Fatalf("factor %v: Reads %d != hits %d + misses %d (in: %+v)",
				f, out.Reads, out.ReadHits, out.ReadMisses, s)
		}
		if out.Writes != out.WriteHits+out.WriteMisses {
			t.Fatalf("factor %v: Writes %d != hits %d + misses %d (in: %+v)",
				f, out.Writes, out.WriteHits, out.WriteMisses, s)
		}
		if out.ReadHits < 0 || out.ReadMisses < 0 || out.WriteHits < 0 || out.WriteMisses < 0 {
			t.Fatalf("factor %v: negative component in %+v", f, out)
		}
		if out.Accesses() != out.Hits()+out.Misses() {
			t.Fatalf("factor %v: accesses %d != hits %d + misses %d",
				f, out.Accesses(), out.Hits(), out.Misses())
		}
	}
}

// TestScaledRounding: the primary signals (totals and misses) round to
// nearest independently; hits absorb the residue.
func TestScaledRounding(t *testing.T) {
	s := Stats{Reads: 3, ReadHits: 2, ReadMisses: 1, Writes: 5, WriteHits: 5}
	out := s.Scaled(1.5)
	// 3*1.5 = 4.5 -> 5 reads; 1*1.5 = 1.5 -> 2 misses; hits = 3.
	if out.Reads != 5 || out.ReadMisses != 2 || out.ReadHits != 3 {
		t.Fatalf("reads side = %d/%d/%d, want 5/3/2 (total/hits/misses)",
			out.Reads, out.ReadHits, out.ReadMisses)
	}
	// 5*1.5 = 7.5 -> 8 writes, no misses.
	if out.Writes != 8 || out.WriteMisses != 0 || out.WriteHits != 8 {
		t.Fatalf("writes side = %d/%d/%d, want 8/8/0", out.Writes, out.WriteHits, out.WriteMisses)
	}
}

// TestScaledMissesClamped: an all-miss side cannot scale past its total.
func TestScaledMissesClamped(t *testing.T) {
	s := Stats{Reads: 3, ReadMisses: 3}
	out := s.Scaled(1.1)
	// 3*1.1 = 3.3 -> 3 both; hits must stay 0, not go negative.
	if out.Reads != 3 || out.ReadMisses != 3 || out.ReadHits != 0 {
		t.Fatalf("got %d/%d/%d, want 3/0/3", out.Reads, out.ReadHits, out.ReadMisses)
	}
}

// TestScaledIdentity: factor 1 is a deep copy.
func TestScaledIdentity(t *testing.T) {
	s := Stats{Reads: 7, ReadHits: 4, ReadMisses: 3, PerSet: []SetStats{{Hits: 2, Misses: 1}}}
	out := s.Scaled(1)
	if out.Reads != 7 || out.ReadHits != 4 || out.ReadMisses != 3 {
		t.Fatalf("identity scaling changed counters: %+v", out)
	}
	out.PerSet[0].Hits = 99
	if s.PerSet[0].Hits != 2 {
		t.Fatal("Scaled(1) aliases the input's PerSet slice")
	}
}

// TestReportMatchesFmt: WriteReport formats its numbers by hand, and
// writes what the fmt verbs it replaced wrote, byte for byte, for counts
// that fit their columns and counts that do not.
func TestReportMatchesFmt(t *testing.T) {
	for _, v := range []int64{0, 7, 255, 123456789, 9876543210, 1 << 62, -12} {
		s := Stats{Reads: v, ReadMisses: v / 3, Writes: 2 * v, WriteMisses: v / 7, Evictions: v, Writebacks: v / 2,
			Prefetches: v, PrefetchFills: v / 5, Compulsory: v / 11, Capacity: v / 13, Conflict: v / 17}
		var b strings.Builder
		fmt.Fprintf(&b, "%s\n", "l1-data")
		fmt.Fprintf(&b, " Metrics               Total      Fetch       Read      Write\n")
		fmt.Fprintf(&b, " -----------------  --------   --------   --------   --------\n")
		fmt.Fprintf(&b, " Demand Fetches     %9d  %9d  %9d  %9d\n", s.Accesses(), int64(0), s.Reads, s.Writes)
		fmt.Fprintf(&b, " Demand Misses      %9d  %9d  %9d  %9d\n", s.Misses(), int64(0), s.ReadMisses, s.WriteMisses)
		fmt.Fprintf(&b, " Demand Miss Rate   %9.4f  %9.4f  %9.4f  %9.4f\n",
			s.MissRatio(), 0.0, ratio(s.ReadMisses, s.Reads), ratio(s.WriteMisses, s.Writes))
		fmt.Fprintf(&b, " Evictions          %9d   (writebacks %d)\n", s.Evictions, s.Writebacks)
		if s.Prefetches > 0 {
			fmt.Fprintf(&b, " Prefetches         %9d   (fills %d)\n", s.Prefetches, s.PrefetchFills)
		}
		if s.Compulsory+s.Capacity+s.Conflict > 0 {
			fmt.Fprintf(&b, " Miss Classes        compulsory %d   capacity %d   conflict %d\n",
				s.Compulsory, s.Capacity, s.Conflict)
		}
		if got := s.Report("l1-data"); got != b.String() {
			t.Errorf("counts %d:\n%q\nwant\n%q", v, got, b.String())
		}
	}
}
