// Package analysis turns simulation results into the per-cache-set
// hit/miss plots of the paper's figures: CSV and gnuplot exports for
// external plotting, and log-scale ASCII charts for the terminal. It also
// computes the occupancy summaries EXPERIMENTS.md compares against the
// paper ("who wins, by what factor, where the accesses land").
package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"tracedst/internal/dinero"
)

// Series is one plotted line: a variable's per-set hits or misses.
type Series struct {
	Label  string
	Hits   []int64
	Misses []int64
}

// Total returns total hits+misses of the series.
func (s *Series) Total() int64 {
	var n int64
	for i := range s.Hits {
		n += s.Hits[i] + s.Misses[i]
	}
	return n
}

// Plot is a figure: several series over the same set axis.
type Plot struct {
	Title  string
	Sets   int
	Series []Series
}

// FromSimulator builds a plot from the per-variable series of a finished
// simulation, largest series first. Variables with no traffic are skipped;
// the (nosym) bucket is included only when includeNoSym is set.
func FromSimulator(title string, sim *dinero.Simulator, includeNoSym bool) *Plot {
	return fromVars(title, sim.L1().Config().Sets(), sim.Vars(), includeNoSym)
}

// FromMulti builds the plot of configuration i of a finished multi-config
// simulation — FromSimulator for the single-pass engine. Exact-mode
// plots are identical to FromSimulator over an independent run of the
// same configuration.
func FromMulti(title string, ms *dinero.MultiSim, i int, includeNoSym bool) *Plot {
	return fromVars(title, ms.Config(i).Sets(), ms.Vars(i), includeNoSym)
}

// fromVars is the body of FromSimulator and FromMulti: one series per
// variable with traffic, in the order given.
func fromVars(title string, sets int, vars []*dinero.VarSeries, includeNoSym bool) *Plot {
	p := &Plot{Title: title, Sets: sets}
	for _, vs := range vars {
		if vs.Name == dinero.NoSymbol && !includeNoSym {
			continue
		}
		if vs.Accesses == 0 {
			continue
		}
		s := Series{Label: vs.Name, Hits: make([]int64, sets), Misses: make([]int64, sets)}
		for j, ps := range vs.PerSet {
			s.Hits[j] = ps.Hits
			s.Misses[j] = ps.Misses
		}
		p.Series = append(p.Series, s)
	}
	return p
}

// OccupiedRange returns the smallest [lo, hi] set interval containing all
// traffic. ok is false when the plot is empty.
func (p *Plot) OccupiedRange() (lo, hi int, ok bool) {
	lo, hi = p.Sets, -1
	for _, s := range p.Series {
		for i := 0; i < p.Sets; i++ {
			if s.Hits[i]+s.Misses[i] > 0 {
				if i < lo {
					lo = i
				}
				if i > hi {
					hi = i
				}
			}
		}
	}
	return lo, hi, hi >= 0
}

// CSV renders "set,<label> hits,<label> misses,…" rows over the occupied
// range (the paper's figures likewise show only the active window).
func (p *Plot) CSV() string {
	var b strings.Builder
	b.WriteString("set")
	for _, s := range p.Series {
		fmt.Fprintf(&b, ",%s hits,%s misses", s.Label, s.Label)
	}
	b.WriteByte('\n')
	lo, hi, ok := p.OccupiedRange()
	if !ok {
		return b.String()
	}
	for i := lo; i <= hi; i++ {
		fmt.Fprintf(&b, "%d", i)
		for _, s := range p.Series {
			fmt.Fprintf(&b, ",%d,%d", s.Hits[i], s.Misses[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// GnuplotData renders one indexed data block per series (hits and misses
// columns), ready for `plot 'file.dat' index N using 1:2`.
func (p *Plot) GnuplotData() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", p.Title)
	lo, hi, ok := p.OccupiedRange()
	if !ok {
		return b.String()
	}
	for _, s := range p.Series {
		fmt.Fprintf(&b, "# series: %s (set hits misses)\n", s.Label)
		for i := lo; i <= hi; i++ {
			fmt.Fprintf(&b, "%d %d %d\n", i, s.Hits[i], s.Misses[i])
		}
		b.WriteString("\n\n")
	}
	return b.String()
}

// ASCII renders the plot as log-scale bar rows, one row per occupied set:
//
//	set   12 | lSoA  hits ██████ 64        misses ██ 3
//
// width bounds the widest bar.
func (p *Plot) ASCII(width int) string {
	if width <= 0 {
		width = 40
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", p.Title)
	lo, hi, ok := p.OccupiedRange()
	if !ok {
		b.WriteString("(no traffic)\n")
		return b.String()
	}
	var maxVal int64 = 1
	for _, s := range p.Series {
		for i := lo; i <= hi; i++ {
			if s.Hits[i] > maxVal {
				maxVal = s.Hits[i]
			}
			if s.Misses[i] > maxVal {
				maxVal = s.Misses[i]
			}
		}
	}
	labelW := 0
	for _, s := range p.Series {
		if len(s.Label) > labelW {
			labelW = len(s.Label)
		}
	}
	for i := lo; i <= hi; i++ {
		first := true
		for _, s := range p.Series {
			h, m := s.Hits[i], s.Misses[i]
			if h+m == 0 {
				continue
			}
			if first {
				fmt.Fprintf(&b, "set %4d | ", i)
				first = false
			} else {
				b.WriteString("         | ")
			}
			fmt.Fprintf(&b, "%-*s hits %-*s %-8d misses %-*s %d\n",
				labelW, s.Label,
				width, bar(h, maxVal, width), h,
				width, bar(m, maxVal, width), m)
		}
	}
	return b.String()
}

// bar renders a log-scaled bar for v against max.
func bar(v, max int64, width int) string {
	if v <= 0 {
		return ""
	}
	frac := math.Log1p(float64(v)) / math.Log1p(float64(max))
	n := int(frac*float64(width) + 0.5)
	if n < 1 {
		n = 1
	}
	return strings.Repeat("#", n)
}

// Occupancy summarises where a series' traffic lands: the set count and the
// dominant set's share, used to verify claims like "striding directs all
// accesses to a single set".
type Occupancy struct {
	Label string
	// SetsTouched is the number of sets with any traffic.
	SetsTouched int
	// DominantSet is the set with the most traffic.
	DominantSet int
	// DominantShare is the fraction of the series' traffic in DominantSet.
	DominantShare float64
	Hits, Misses  int64
}

// OccupancyOf summarises one series.
func OccupancyOf(s *Series) Occupancy {
	o := Occupancy{Label: s.Label, DominantSet: -1}
	var total, best int64
	for i := range s.Hits {
		t := s.Hits[i] + s.Misses[i]
		o.Hits += s.Hits[i]
		o.Misses += s.Misses[i]
		if t > 0 {
			o.SetsTouched++
			total += t
			if t > best {
				best = t
				o.DominantSet = i
			}
		}
	}
	if total > 0 {
		o.DominantShare = float64(best) / float64(total)
	}
	return o
}

// Summary renders the occupancy table for all series, ordered by traffic.
func (p *Plot) Summary() string {
	occ := make([]Occupancy, 0, len(p.Series))
	for i := range p.Series {
		occ = append(occ, OccupancyOf(&p.Series[i]))
	}
	sort.Slice(occ, func(i, j int) bool {
		return occ[i].Hits+occ[i].Misses > occ[j].Hits+occ[j].Misses
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %8s %8s %12s %12s %14s\n",
		"series", "hits", "misses", "sets-touched", "dominant-set", "dominant-share")
	for _, o := range occ {
		fmt.Fprintf(&b, "%-28s %8d %8d %12d %12d %13.1f%%\n",
			o.Label, o.Hits, o.Misses, o.SetsTouched, o.DominantSet, 100*o.DominantShare)
	}
	return b.String()
}

// SeriesByLabel finds a series by its label.
func (p *Plot) SeriesByLabel(label string) (*Series, bool) {
	for i := range p.Series {
		if p.Series[i].Label == label {
			return &p.Series[i], true
		}
	}
	return nil, false
}
