// Package tracediff aligns an original trace with its transformed
// counterpart — the role of the graphical diff tool in the paper's Figures
// 5, 8 and 9. It computes a Myers diff over whole trace lines, pairs
// adjacent delete/insert runs into "rewritten" lines, and renders a
// side-by-side view with change markers.
package tracediff

import (
	"fmt"
	"strings"

	"tracedst/internal/trace"
)

// OpKind classifies one diff row.
type OpKind int

// Diff row kinds.
const (
	// Same: the line appears unchanged in both traces.
	Same OpKind = iota
	// Rewritten: a line was transformed in place (delete paired with an
	// insert) — the ⇒ rows of Fig 5.
	Rewritten
	// Inserted: a new line exists only in the transformed trace (the green
	// indirection loads of Fig 8).
	Inserted
	// Deleted: a line exists only in the original trace.
	Deleted
)

// String returns the kind name.
func (k OpKind) String() string {
	switch k {
	case Same:
		return "same"
	case Rewritten:
		return "rewritten"
	case Inserted:
		return "inserted"
	case Deleted:
		return "deleted"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Row is one aligned diff row. A and B index into the original and
// transformed record slices (-1 when absent).
type Row struct {
	Kind OpKind
	A, B int
}

// Diff is the alignment of two traces.
type Diff struct {
	A, B []trace.Record
	Rows []Row
}

// Stats summarises a diff.
type Stats struct {
	Same      int
	Rewritten int
	Inserted  int
	Deleted   int
}

// Stats computes row-kind counts.
func (d *Diff) Stats() Stats {
	var s Stats
	for _, r := range d.Rows {
		switch r.Kind {
		case Same:
			s.Same++
		case Rewritten:
			s.Rewritten++
		case Inserted:
			s.Inserted++
		case Deleted:
			s.Deleted++
		}
	}
	return s
}

// New aligns two record slices.
func New(a, b []trace.Record) *Diff {
	// Intern record texts so the diff compares small integers, not strings.
	intern := map[string]int32{}
	id := func(s string) int32 {
		if v, ok := intern[s]; ok {
			return v
		}
		v := int32(len(intern))
		intern[s] = v
		return v
	}
	keysA := make([]int32, len(a))
	for i := range a {
		keysA[i] = id(a[i].String())
	}
	keysB := make([]int32, len(b))
	for i := range b {
		keysB[i] = id(b[i].String())
	}
	ops := myers(keysA, keysB)
	return &Diff{A: a, B: b, Rows: pairRewrites(ops)}
}

// myers computes a minimal edit script between a and b as raw rows with
// kinds Same, Deleted and Inserted. Snapshots of the frontier are stored
// windowed (only diagonals -d..d per step), keeping memory O(D²) instead of
// O(D·(N+M)).
func myers(a, b []int32) []Row {
	n, m := len(a), len(b)
	max := n + m
	if max == 0 {
		return nil
	}
	// v[k+max] = furthest x on diagonal k.
	v := make([]int32, 2*max+1)
	var traceV [][]int32 // traceV[d] holds v[max-d .. max+d] before step d
	var found bool
	var dFound int
	for d := 0; d <= max && !found; d++ {
		vc := make([]int32, 2*d+1)
		copy(vc, v[max-d:max+d+1])
		traceV = append(traceV, vc)
		for k := -d; k <= d; k += 2 {
			var x int
			if k == -d || (k != d && v[k-1+max] < v[k+1+max]) {
				x = int(v[k+1+max]) // down: insert from b
			} else {
				x = int(v[k-1+max]) + 1 // right: delete from a
			}
			y := x - k
			for x < n && y < m && a[x] == b[y] {
				x++
				y++
			}
			v[k+max] = int32(x)
			if x >= n && y >= m {
				found = true
				dFound = d
				break
			}
		}
	}
	// Backtrack.
	var rows []Row
	x, y := n, m
	for d := dFound; d > 0; d-- {
		vPrev := traceV[d] // window of diagonals -d..d, index k+d
		k := x - y
		var prevK int
		if k == -d || (k != d && vPrev[k-1+d] < vPrev[k+1+d]) {
			prevK = k + 1
		} else {
			prevK = k - 1
		}
		prevX := int(vPrev[prevK+d])
		prevY := prevX - prevK
		for x > prevX && y > prevY {
			x--
			y--
			rows = append(rows, Row{Kind: Same, A: x, B: y})
		}
		if x == prevX {
			y--
			rows = append(rows, Row{Kind: Inserted, A: -1, B: y})
		} else {
			x--
			rows = append(rows, Row{Kind: Deleted, A: x, B: -1})
		}
	}
	for x > 0 && y > 0 {
		x--
		y--
		rows = append(rows, Row{Kind: Same, A: x, B: y})
	}
	for x > 0 {
		x--
		rows = append(rows, Row{Kind: Deleted, A: x, B: -1})
	}
	for y > 0 {
		y--
		rows = append(rows, Row{Kind: Inserted, A: -1, B: y})
	}
	// Reverse.
	for i, j := 0, len(rows)-1; i < j; i, j = i+1, j-1 {
		rows[i], rows[j] = rows[j], rows[i]
	}
	return rows
}

// pairRewrites merges each run of deletes followed by a run of inserts into
// Rewritten rows pairwise (leftovers stay Deleted/Inserted), matching how a
// graphical diff presents in-place changes.
func pairRewrites(rows []Row) []Row {
	var out []Row
	i := 0
	for i < len(rows) {
		if rows[i].Kind != Deleted {
			out = append(out, rows[i])
			i++
			continue
		}
		j := i
		for j < len(rows) && rows[j].Kind == Deleted {
			j++
		}
		k := j
		for k < len(rows) && rows[k].Kind == Inserted {
			k++
		}
		dels := rows[i:j]
		ins := rows[j:k]
		p := 0
		for ; p < len(dels) && p < len(ins); p++ {
			out = append(out, Row{Kind: Rewritten, A: dels[p].A, B: ins[p].B})
		}
		for ; p < len(dels); p++ {
			out = append(out, dels[p])
		}
		for p = len(dels); p < len(ins); p++ {
			out = append(out, ins[p])
		}
		i = k
	}
	return out
}

// SideBySide renders the aligned traces with change markers: "  " same,
// "=>" rewritten, "++" inserted, "--" deleted (cf. Figures 5, 8, 9).
// width is the column width for each side.
func (d *Diff) SideBySide(width int) string {
	if width <= 0 {
		width = 52
	}
	var b strings.Builder
	for _, r := range d.Rows {
		var left, right, mark string
		switch r.Kind {
		case Same:
			left, right, mark = d.A[r.A].String(), d.B[r.B].String(), "  "
		case Rewritten:
			left, right, mark = d.A[r.A].String(), d.B[r.B].String(), "=>"
		case Inserted:
			left, right, mark = "", d.B[r.B].String(), "++"
		case Deleted:
			left, right, mark = d.A[r.A].String(), "", "--"
		}
		fmt.Fprintf(&b, "%-*.*s %s %s\n", width, width, left, mark, right)
	}
	return b.String()
}

// ChangedVariables lists the root variables whose records were rewritten or
// inserted, with counts — the quick answer to "what did the rule touch?".
func (d *Diff) ChangedVariables() map[string]int {
	out := map[string]int{}
	for _, r := range d.Rows {
		switch r.Kind {
		case Rewritten, Inserted:
			rec := &d.B[r.B]
			if rec.HasSym {
				out[rec.Site.Var().Root]++
			} else {
				out["(nosym)"]++
			}
		}
	}
	return out
}
