// Package xform is the paper's trace-transformation module: a streaming
// rewriter that applies rule-based data-structure transformations to a
// Gleipnir trace during simulation, without touching the traced program.
//
// Processing follows §IV.A of the paper:
//
//  1. Initialise the rules — each rule's out structures get a new base
//     address and size.
//  2. Check validity — each trace line's metadata variable is parsed into a
//     nested access path; lines whose root variable and nesting match an in
//     rule are transformed, everything else passes through unchanged
//     ("the simulator will simply ignore it").
//  3. Apply the transformation — the in path is mapped to the out rule and
//     a new address computed; pointer indirection inserts an extra load,
//     stride rules insert the hand-selected index-arithmetic accesses.
//  4. Print the transformation — the rewritten stream can be written to a
//     transformed_trace.out file and diffed against the original.
package xform

import (
	"fmt"
	"io"

	"tracedst/internal/ctype"
	"tracedst/internal/memmodel"
	"tracedst/internal/rules"
	"tracedst/internal/telemetry"
	"tracedst/internal/trace"
)

// Options tune the engine.
type Options struct {
	// ShadowAlign forces the alignment of relocated out structures. Zero
	// selects automatically: the out type's natural alignment, or for
	// stride rules the power of two covering the formula's largest jump
	// (so that pinned windows stay within one cache set).
	ShadowAlign int64
}

// Stats counts what the engine did.
type Stats struct {
	// Total records seen.
	Total int64
	// Matched records rewritten by a rule.
	Matched int64
	// Passed records forwarded unchanged.
	Passed int64
	// Inserted extra records (indirection loads, injected arithmetic).
	Inserted int64
}

// Engine applies one or more rules to a record stream. Rules match on
// distinct root variables; the first matching rule wins.
type Engine struct {
	opts   Options
	states []*ruleState
	byRoot map[string]*ruleState

	// lastScalar remembers the most recent annotated scalar record per
	// root variable, so injected accesses can reuse real addresses.
	lastScalar map[string]trace.Record
	// synth hands out addresses for injected variables that never appear
	// in the original trace (e.g. ITEMSPERLINE).
	synthNext uint64
	synthAddr map[string]uint64

	// maxExtra is the largest ruleState.extra; zero lets outBound skip
	// its scan.
	maxExtra int
	// path is scratch for building a rewritten access path; slab is the
	// storage emitted paths are carved from (see carve).
	path ctype.Path
	slab ctype.Path

	stats Stats
}

// Path slab sizes, in path elements: the first slab, and the cap the
// doubling stops at.
const (
	firstSlabElems = 64
	slabElems      = 4096
)

// ruleState is the per-rule address bookkeeping.
type ruleState struct {
	rule rules.Rule
	// inType is the shape of the in structure, fixed when the engine is
	// built (stride rules describe it as element type × length).
	inType ctype.Type
	// extra is the most records one matching input adds to the output:
	// the rule's injects, plus the pointer load for outline rules.
	extra int
	// inBase is established from the first matching record.
	inBase uint64
	haveIn bool
	// bases maps out variable name → base address.
	bases map[string]uint64
}

// newRuleState derives a rule's fixed per-engine facts.
func newRuleState(r rules.Rule) *ruleState {
	st := &ruleState{rule: r, extra: len(r.Inject()), bases: map[string]uint64{}}
	switch rr := r.(type) {
	case *rules.StructRemapRule:
		st.inType = rr.InType
	case *rules.OutlineRule:
		st.inType = rr.InType
		st.extra++
	case *rules.StrideRule:
		st.inType = ctype.NewArray(rr.Elem, rr.InLen)
	case *rules.PeelRule:
		st.inType = rr.InType
	}
	return st
}

// New builds an engine over the given rules.
func New(opts Options, rs ...rules.Rule) (*Engine, error) {
	if len(rs) == 0 {
		return nil, fmt.Errorf("xform: no rules given")
	}
	e := &Engine{
		opts:       opts,
		byRoot:     map[string]*ruleState{},
		lastScalar: map[string]trace.Record{},
		synthNext:  memmodel.StackTop + 16,
		synthAddr:  map[string]uint64{},
	}
	for _, r := range rs {
		if _, dup := e.byRoot[r.InRoot()]; dup {
			return nil, fmt.Errorf("xform: two rules for root %q", r.InRoot())
		}
		st := newRuleState(r)
		e.states = append(e.states, st)
		e.byRoot[r.InRoot()] = st
		e.maxExtra = max(e.maxExtra, st.extra)
	}
	return e, nil
}

// Stats returns the counters so far.
func (e *Engine) Stats() Stats { return e.stats }

// OutBase reports the base address assigned to an out variable (valid once
// a record matched the rule).
func (e *Engine) OutBase(name string) (uint64, bool) {
	for _, st := range e.states {
		if a, ok := st.bases[name]; ok {
			return a, true
		}
	}
	return 0, false
}

// Transform rewrites one record. It returns the record(s) to emit in order:
// the unchanged record, or the rewritten record preceded by any inserted
// accesses.
func (e *Engine) Transform(rec *trace.Record) ([]trace.Record, error) {
	return e.appendTransform(nil, rec)
}

// appendTransform appends the record(s) rec becomes to dst and returns the
// extended slice, or nil and the error that stopped it. Rewritten records
// carry paths carved from the engine's slab; passed-through records share
// rec's path.
func (e *Engine) appendTransform(dst []trace.Record, rec *trace.Record) ([]trace.Record, error) {
	e.stats.Total++
	// Track scalar addresses for inject resolution.
	if rec.HasSym && len(rec.Var.Path) == 0 {
		e.lastScalar[rec.Var.Root] = *rec
	}
	if !rec.HasSym {
		e.stats.Passed++
		return append(dst, *rec), nil
	}
	st, ok := e.byRoot[rec.Var.Root]
	if !ok {
		e.stats.Passed++
		return append(dst, *rec), nil
	}
	n := len(dst)
	dst, ok, err := e.apply(dst, st, rec)
	if err != nil {
		return nil, err
	}
	if !ok {
		// Non-conforming nesting: ignore (pass through).
		e.stats.Passed++
		return append(dst, *rec), nil
	}
	e.stats.Matched++
	e.stats.Inserted += int64(len(dst) - n - 1)
	return dst, nil
}

// appendBatch appends the transformation of every record in recs to dst:
// the one batch loop behind TransformAll and Source.
func (e *Engine) appendBatch(dst, recs []trace.Record) ([]trace.Record, error) {
	for i := range recs {
		var err error
		if dst, err = e.appendTransform(dst, &recs[i]); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// outBound is an upper bound on the records recs transforms into, so a
// buffer of that capacity never regrows.
func (e *Engine) outBound(recs []trace.Record) int {
	n := len(recs)
	if e.maxExtra == 0 {
		return n
	}
	for i := range recs {
		if !recs[i].HasSym {
			continue
		}
		if st, ok := e.byRoot[recs[i].Var.Root]; ok {
			n += st.extra
		}
	}
	return n
}

// carve copies p into the path slab and returns the copy, capped so that
// appending to it reallocates instead of overwriting the next path. Slab
// memory is never reused: emitted records may outlive any batch. Slabs
// start small and double up to slabElems, so an engine that rewrites a
// short trace does not pay for a full slab.
func (e *Engine) carve(p ctype.Path) ctype.Path {
	if cap(e.slab)-len(e.slab) < len(p) {
		e.slab = make(ctype.Path, 0, max(min(2*cap(e.slab), slabElems), firstSlabElems, len(p)))
	}
	n := len(e.slab)
	e.slab = append(e.slab, p...)
	return e.slab[n:len(e.slab):len(e.slab)]
}

// TransformAll rewrites a whole record slice into one output slice sized
// up front. Each call publishes what it did — records seen, rules fired,
// records inserted/passed — to the default telemetry registry.
func (e *Engine) TransformAll(recs []trace.Record) ([]trace.Record, error) {
	before := e.stats
	out, err := e.appendBatch(make([]trace.Record, 0, e.outBound(recs)), recs)
	e.publish(before)
	return out, err
}

// publish adds this call's stat deltas (engines accumulate across calls)
// to the default registry.
func (e *Engine) publish(before Stats) {
	reg := telemetry.Default()
	reg.Counter("xform.runs").Inc()
	reg.Counter("xform.records").Add(e.stats.Total - before.Total)
	reg.Counter("xform.rules_fired").Add(e.stats.Matched - before.Matched)
	reg.Counter("xform.inserted").Add(e.stats.Inserted - before.Inserted)
	reg.Counter("xform.passed").Add(e.stats.Passed - before.Passed)
}

// Source returns a RecordSource that yields src's records transformed,
// batch by batch, holding only one batch live at a time — the streaming
// transform stage. Its batches reuse one buffer and follow the
// RecordSource contract: each is valid until the next NextBatch call,
// though the rewritten paths it holds stay valid for good. It does not
// publish telemetry; the engine's Stats count its records.
func (e *Engine) Source(src trace.RecordSource) trace.RecordSource {
	return &source{src: src, eng: e}
}

// source is the RecordSource Engine.Source returns.
type source struct {
	src trace.RecordSource
	eng *Engine
	out []trace.Record
}

func (s *source) Header() (trace.Header, error) { return s.src.Header() }
func (s *source) HasHeader() bool               { return s.src.HasHeader() }
func (s *source) BadLines() int                 { return s.src.BadLines() }

// NextBatch transforms the next input batch. Every input record emits at
// least one record, so a non-empty input gives a non-empty batch.
func (s *source) NextBatch() ([]trace.Record, error) {
	in, err := s.src.NextBatch()
	if err != nil {
		return nil, err
	}
	if n := s.eng.outBound(in); cap(s.out) < n {
		s.out = make([]trace.Record, 0, n)
	}
	out, err := s.eng.appendBatch(s.out[:0], in)
	if err != nil {
		return nil, err
	}
	s.out = out
	return out, nil
}

// Run streams records from rd to wr, transforming as it goes — the paper's
// trace-file → transformed_trace.out pipeline.
func (e *Engine) Run(rd *trace.Reader, wr *trace.Writer) error {
	return e.RunSource(trace.NewSource(rd, 0), wr)
}

// RunSource streams record batches from src to wr, transforming as it
// goes, holding only one batch live at a time — the constant-memory
// transform stage, format-agnostic on both ends. Like TransformAll it
// publishes its stat deltas to the default telemetry registry.
func (e *Engine) RunSource(src trace.RecordSource, wr trace.RecordWriter) error {
	before := e.stats
	defer e.publish(before)
	xs := e.Source(src)
	h, err := xs.Header()
	if err != nil && err != io.EOF {
		return err
	}
	// A headerless input stays headerless — inventing a zero START line
	// would break byte-level round trips through tracediff.
	if xs.HasHeader() {
		if err := wr.WriteHeader(h); err != nil {
			return err
		}
	}
	for {
		batch, err := xs.NextBatch()
		if err == io.EOF {
			return wr.Flush()
		}
		if err != nil {
			return err
		}
		for i := range batch {
			if err := wr.Write(&batch[i]); err != nil {
				return err
			}
		}
	}
}

// apply dispatches on the rule kind, appending the rewritten record and
// any inserted accesses to dst. A false return means "does not conform —
// pass through", with dst unchanged.
func (e *Engine) apply(dst []trace.Record, st *ruleState, rec *trace.Record) ([]trace.Record, bool, error) {
	switch r := st.rule.(type) {
	case *rules.StructRemapRule:
		return e.applyRemap(dst, st, r, rec)
	case *rules.OutlineRule:
		return e.applyOutline(dst, st, r, rec)
	case *rules.StrideRule:
		return e.applyStride(dst, st, r, rec)
	case *rules.PeelRule:
		return e.applyPeel(dst, st, r, rec)
	}
	return dst, false, fmt.Errorf("xform: unknown rule type %T", st.rule)
}

// establish computes the in base address from the first conforming record
// and assigns out bases.
func (e *Engine) establish(st *ruleState, rec *trace.Record) error {
	if st.haveIn {
		return nil
	}
	off, _, err := ctype.Resolve(st.inType, rec.Var.Path)
	if err != nil {
		return fmt.Errorf("xform: cannot anchor %s: %v", rec.Var, err)
	}
	st.inBase = rec.Addr - uint64(off)
	st.haveIn = true
	return e.assignBases(st)
}

// assignBases places each out structure: the primary replaces the in
// structure at its (re-aligned) base, auxiliaries (the outline pool) go
// below it on the stack or above it in the data segment ("the simulator
// will read the in and out rules and set up a new base address and size for
// the new structure").
func (e *Engine) assignBases(st *ruleState) error {
	onStack := memmodel.RegionOf(st.inBase) == "stack"
	switch r := st.rule.(type) {
	case *rules.StructRemapRule:
		align := e.alignFor(r.OutType.Align(), 0)
		st.bases[r.OutVar] = alignDown(st.inBase, align)
	case *rules.OutlineRule:
		align := e.alignFor(r.OutType.Align(), 0)
		primary := alignDown(st.inBase, align)
		st.bases[r.OutVar] = primary
		poolAlign := e.alignFor(r.PoolType.Align(), 0)
		if onStack {
			st.bases[r.PoolVar] = alignDown(primary-uint64(r.PoolType.Size()), poolAlign)
		} else {
			st.bases[r.PoolVar] = alignUp(primary+uint64(r.OutType.Size()), poolAlign)
		}
	case *rules.StrideRule:
		align := e.alignFor(r.Elem.Align(), strideAutoAlign(r))
		st.bases[r.OutVar] = alignDown(st.inBase, align)
	case *rules.PeelRule:
		// First group replaces the in structure; subsequent groups stack
		// below it (stack variables) or above it (globals/heap).
		primaryAlign := e.alignFor(r.Groups[0].Type.Align(), 0)
		base := alignDown(st.inBase, primaryAlign)
		st.bases[r.Groups[0].Var] = base
		low := base
		high := base + uint64(r.Groups[0].Type.Size())
		for _, g := range r.Groups[1:] {
			a := e.alignFor(g.Type.Align(), 0)
			if onStack {
				low = alignDown(low-uint64(g.Type.Size()), a)
				st.bases[g.Var] = low
			} else {
				high = alignUp(high, a)
				st.bases[g.Var] = high
				high += uint64(g.Type.Size())
			}
		}
	}
	return nil
}

// alignFor picks the effective alignment: explicit option, else the larger
// of the natural and automatic alignments.
func (e *Engine) alignFor(natural, auto int64) uint64 {
	if e.opts.ShadowAlign > 0 {
		return uint64(e.opts.ShadowAlign)
	}
	a := natural
	if auto > a {
		a = auto
	}
	if a < 1 {
		a = 1
	}
	return uint64(a)
}

// strideAutoAlign returns the power of two covering the formula's largest
// byte jump, so that each pinned window falls entirely within one cache-set
// stride (512 bytes for the paper's formula).
func strideAutoAlign(r *rules.StrideRule) int64 {
	esz := r.Elem.Size()
	var maxJump int64 = esz
	prev, err := r.Formula.Eval(0)
	if err != nil {
		return esz
	}
	for i := int64(1); i < r.InLen; i++ {
		cur, err := r.Formula.Eval(i)
		if err != nil {
			return esz
		}
		jump := (cur - prev) * esz
		if jump < 0 {
			jump = -jump
		}
		if jump > maxJump {
			maxJump = jump
		}
		prev = cur
	}
	align := int64(1)
	for align < maxJump && align < 4096 {
		align <<= 1
	}
	return align
}

func alignDown(a uint64, align uint64) uint64 { return a - a%align }

func alignUp(a uint64, align uint64) uint64 {
	if r := a % align; r != 0 {
		return a + align - r
	}
	return a
}
