package trace

// Pred is a record predicate used by the filtering helpers.
type Pred func(*Record) bool

// Filter returns the records satisfying pred, preserving order.
func Filter(recs []Record, pred Pred) []Record {
	var out []Record
	for i := range recs {
		if pred(&recs[i]) {
			out = append(out, recs[i])
		}
	}
	return out
}

// ByFunc matches records executed by the given function.
func ByFunc(fn string) Pred {
	return func(r *Record) bool { return r.Site.Func() == fn }
}

// ByVar matches records annotated with the given root variable.
func ByVar(root string) Pred {
	return func(r *Record) bool { return r.HasSym && r.Site.Var().Root == root }
}

// ByOp matches records with any of the given access types.
func ByOp(ops ...Op) Pred {
	return func(r *Record) bool {
		for _, op := range ops {
			if r.Op == op {
				return true
			}
		}
		return false
	}
}

// ByAddrRange matches records whose access overlaps [lo, hi).
func ByAddrRange(lo, hi uint64) Pred {
	return func(r *Record) bool { return r.Addr < hi && r.End() > lo }
}

// Annotated matches records that carry symbol information.
func Annotated() Pred {
	return func(r *Record) bool { return r.HasSym }
}

// And combines predicates conjunctively.
func And(preds ...Pred) Pred {
	return func(r *Record) bool {
		for _, p := range preds {
			if !p(r) {
				return false
			}
		}
		return true
	}
}

// Or combines predicates disjunctively.
func Or(preds ...Pred) Pred {
	return func(r *Record) bool {
		for _, p := range preds {
			if p(r) {
				return true
			}
		}
		return false
	}
}

// Not negates a predicate.
func Not(p Pred) Pred {
	return func(r *Record) bool { return !p(r) }
}

// Roots returns the distinct annotated root variables in first-seen order.
func Roots(recs []Record) []string {
	seen := map[string]bool{}
	var out []string
	for i := range recs {
		if root := recs[i].Site.Var().Root; recs[i].HasSym && !seen[root] {
			seen[root] = true
			out = append(out, root)
		}
	}
	return out
}

// Funcs returns the distinct executing functions in first-seen order.
func Funcs(recs []Record) []string {
	seen := map[string]bool{}
	var out []string
	for i := range recs {
		if fn := recs[i].Site.Func(); !seen[fn] {
			seen[fn] = true
			out = append(out, fn)
		}
	}
	return out
}

// Footprint returns the number of distinct size-aligned blocks touched
// (e.g. blockSize 32 gives the 32-byte-line footprint).
func Footprint(recs []Record, blockSize int64) int {
	if blockSize <= 0 {
		blockSize = 1
	}
	blocks := map[uint64]bool{}
	for i := range recs {
		r := &recs[i]
		for b := r.Addr / uint64(blockSize); b <= (r.End()-1)/uint64(blockSize); b++ {
			blocks[b] = true
		}
	}
	return len(blocks)
}
