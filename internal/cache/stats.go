package cache

import (
	"fmt"
	"strconv"
	"strings"
)

// SetStats is the per-set hit/miss tally behind the paper's figures.
type SetStats struct {
	Hits   int64
	Misses int64
}

// Stats accumulates a cache level's counters.
type Stats struct {
	Reads       int64
	ReadHits    int64
	ReadMisses  int64
	Writes      int64
	WriteHits   int64
	WriteMisses int64

	Evictions  int64
	Writebacks int64

	// Prefetches counts issued sequential prefetches; PrefetchFills those
	// that actually brought a block in (the rest were already resident).
	Prefetches    int64
	PrefetchFills int64

	// Three-C classification (only when Config.ClassifyMisses).
	Compulsory int64
	Capacity   int64
	Conflict   int64

	PerSet []SetStats
}

// Accesses is the total number of block-granular accesses.
func (s Stats) Accesses() int64 { return s.Reads + s.Writes }

// Hits is the total hit count.
func (s Stats) Hits() int64 { return s.ReadHits + s.WriteHits }

// Misses is the total miss count.
func (s Stats) Misses() int64 { return s.ReadMisses + s.WriteMisses }

// MissRatio returns misses/accesses (0 when idle).
func (s Stats) MissRatio() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(s.Accesses())
}

// Report renders a DineroIV-flavoured statistics block.
func (s Stats) Report(name string) string {
	var b strings.Builder
	b.Grow(ReportBytes)
	s.WriteReport(&b, name)
	return b.String()
}

// ReportBytes is about the length of a Report: its six fixed lines with
// counts in their columns, and room for a name.
const ReportBytes = 384

// WriteReport writes the block Report returns to b, formatting the numbers
// without boxing them.
func (s Stats) WriteReport(b *strings.Builder, name string) {
	var buf [32]byte
	b.WriteString(name)
	b.WriteString("\n Metrics               Total      Fetch       Read      Write\n")
	b.WriteString(" -----------------  --------   --------   --------   --------\n")
	// Each row is an 18-byte label, then columns of two spaces and a
	// number right-aligned in 9.
	b.WriteString(" Demand Fetches   ")
	for _, v := range [4]int64{s.Accesses(), 0, s.Reads, s.Writes} {
		writeCol(b, strconv.AppendInt(buf[:0], v, 10), 9)
	}
	b.WriteString("\n Demand Misses    ")
	for _, v := range [4]int64{s.Misses(), 0, s.ReadMisses, s.WriteMisses} {
		writeCol(b, strconv.AppendInt(buf[:0], v, 10), 9)
	}
	b.WriteString("\n Demand Miss Rate ")
	for _, v := range [4]float64{s.MissRatio(), 0, ratio(s.ReadMisses, s.Reads), ratio(s.WriteMisses, s.Writes)} {
		writeCol(b, strconv.AppendFloat(buf[:0], v, 'f', 4, 64), 9)
	}
	b.WriteString("\n Evictions        ")
	writeCol(b, strconv.AppendInt(buf[:0], s.Evictions, 10), 9)
	b.WriteString("   (writebacks ")
	b.Write(strconv.AppendInt(buf[:0], s.Writebacks, 10))
	b.WriteString(")\n")
	if s.Prefetches > 0 {
		b.WriteString(" Prefetches       ")
		writeCol(b, strconv.AppendInt(buf[:0], s.Prefetches, 10), 9)
		b.WriteString("   (fills ")
		b.Write(strconv.AppendInt(buf[:0], s.PrefetchFills, 10))
		b.WriteString(")\n")
	}
	if s.Compulsory+s.Capacity+s.Conflict > 0 {
		fmt.Fprintf(b, " Miss Classes        compulsory %d   capacity %d   conflict %d\n",
			s.Compulsory, s.Capacity, s.Conflict)
	}
}

// writeCol writes two spaces, then p right-aligned in w bytes, as fmt's
// "  %*d" and "  %*.*f" write a number.
func writeCol(b *strings.Builder, p []byte, w int) {
	b.WriteString("  ")
	for n := len(p); n < w; n++ {
		b.WriteByte(' ')
	}
	b.Write(p)
}

// Merge adds other's counters into s, element-wise for the per-set tally
// (growing s.PerSet if other covers more sets). Every Stats field is a sum
// over independent accesses, so merging is exact and associative: simulating
// a trace in shards — with cold caches between shards, i.e. a Flush at each
// boundary — and merging the shard stats yields the same totals as one
// simulation of the concatenated trace. This is the aggregation primitive
// for sharded sweep scale-out.
func (s *Stats) Merge(other Stats) {
	s.Reads += other.Reads
	s.ReadHits += other.ReadHits
	s.ReadMisses += other.ReadMisses
	s.Writes += other.Writes
	s.WriteHits += other.WriteHits
	s.WriteMisses += other.WriteMisses
	s.Evictions += other.Evictions
	s.Writebacks += other.Writebacks
	s.Prefetches += other.Prefetches
	s.PrefetchFills += other.PrefetchFills
	s.Compulsory += other.Compulsory
	s.Capacity += other.Capacity
	s.Conflict += other.Conflict
	if len(other.PerSet) > len(s.PerSet) {
		grown := make([]SetStats, len(other.PerSet))
		copy(grown, s.PerSet)
		s.PerSet = grown
	}
	for i, ps := range other.PerSet {
		s.PerSet[i].Hits += ps.Hits
		s.PerSet[i].Misses += ps.Misses
	}
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Scaled returns a copy of s with every total multiplied by factor and
// rounded to the nearest count — the estimate a sampled simulation reports
// for the full trace. Totals and misses are rounded independently (misses
// are the primary signal sampling consumers read); hits are derived as
// total − misses so the structural invariants Reads == ReadHits +
// ReadMisses and Writes == WriteHits + WriteMisses hold exactly — per-side
// rounding could otherwise drift them apart by ±1. Per-set counters are
// scaled by the same factor.
func (s Stats) Scaled(factor float64) Stats {
	if factor == 1 {
		out := s
		out.PerSet = append([]SetStats(nil), s.PerSet...)
		return out
	}
	scale := func(n int64) int64 { return int64(float64(n)*factor + 0.5) }
	// splitSide rounds the side's total and miss count, clamps misses into
	// [0, total] and derives hits from the difference.
	splitSide := func(total, misses int64) (t, h, m int64) {
		t = scale(total)
		m = scale(misses)
		if m > t {
			m = t
		}
		return t, t - m, m
	}
	out := Stats{
		Evictions:     scale(s.Evictions),
		Writebacks:    scale(s.Writebacks),
		Prefetches:    scale(s.Prefetches),
		PrefetchFills: scale(s.PrefetchFills),
		Compulsory:    scale(s.Compulsory),
		Capacity:      scale(s.Capacity),
		Conflict:      scale(s.Conflict),
		PerSet:        make([]SetStats, len(s.PerSet)),
	}
	out.Reads, out.ReadHits, out.ReadMisses = splitSide(s.Reads, s.ReadMisses)
	out.Writes, out.WriteHits, out.WriteMisses = splitSide(s.Writes, s.WriteMisses)
	for i, ps := range s.PerSet {
		out.PerSet[i] = SetStats{Hits: scale(ps.Hits), Misses: scale(ps.Misses)}
	}
	return out
}

// OccupiedSets returns the indices of sets with any traffic, in order.
func (s Stats) OccupiedSets() []int {
	var out []int
	for i, ps := range s.PerSet {
		if ps.Hits+ps.Misses > 0 {
			out = append(out, i)
		}
	}
	return out
}
