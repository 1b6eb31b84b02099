package xform

import (
	"tracedst/internal/ctype"
	"tracedst/internal/rules"
	"tracedst/internal/trace"
)

// applyRemap rewrites one SoA↔AoS record: the access is decomposed into a
// (member, element-index) pair and re-resolved against the out layout.
func (e *Engine) applyRemap(dst []trace.Record, st *ruleState, r *rules.StructRemapRule, rec *trace.Record) ([]trace.Record, bool, error) {
	field, flat, ok := splitAccess(r.InType, rec.Var.Path)
	if !ok {
		return dst, false, nil
	}
	outPath, ok := buildAccess(e.path[:0], r.OutType, field, flat)
	if !ok {
		return dst, false, nil
	}
	e.path = outPath
	if err := e.establish(st, rec); err != nil {
		return dst, false, err
	}
	off, elem, err := ctype.Resolve(r.OutType, outPath)
	if err != nil {
		return dst, false, nil // out of range for the out shape: ignore
	}
	out := e.rewritten(rec, r.OutVar, outPath, st.bases[r.OutVar]+uint64(off), elem.Size())
	return append(e.appendInjects(dst, &out, r.Inject()), out), true, nil
}

// rewritten returns rec relocated to addr as an aggregate access of size
// bytes to root+path, the path carved from the engine's slab.
func (e *Engine) rewritten(rec *trace.Record, root string, path ctype.Path, addr uint64, size int64) trace.Record {
	out := *rec
	out.Addr = addr
	out.Size = size
	out.Var = ctype.AccessExpr{Root: root, Path: e.carve(path)}
	out.Aggregate = true
	return out
}

// splitAccess decomposes a conforming access path into (member name, flat
// element index). Conforming paths are [idx]·field(·idx) with at most one
// varying dimension on each level.
func splitAccess(t ctype.Type, path ctype.Path) (string, int64, bool) {
	var outer int64
	st, isStruct := t.(*ctype.Struct)
	if arr, ok := t.(*ctype.Array); ok {
		if len(path) == 0 || !path[0].IsIndex() {
			return "", 0, false
		}
		outer = path[0].Index
		path = path[1:]
		st, isStruct = arr.Elem.(*ctype.Struct)
	}
	if !isStruct || len(path) == 0 || path[0].IsIndex() {
		return "", 0, false
	}
	fieldName := path[0].Field
	f, ok := st.FieldByName(fieldName)
	if !ok {
		return "", 0, false
	}
	path = path[1:]
	var inner, innerLen int64 = 0, 1
	if fa, ok := f.Type.(*ctype.Array); ok {
		if len(path) != 1 || !path[0].IsIndex() {
			return "", 0, false
		}
		inner = path[0].Index
		innerLen = fa.Len
		path = nil
	}
	if len(path) != 0 {
		return "", 0, false
	}
	return fieldName, outer*innerLen + inner, true
}

// buildAccess is the inverse of splitAccess for the out layout: it appends
// the out path to p.
func buildAccess(p ctype.Path, t ctype.Type, field string, flat int64) (ctype.Path, bool) {
	st, isStruct := t.(*ctype.Struct)
	isArray := false
	if arr, ok := t.(*ctype.Array); ok {
		isArray = true
		st, isStruct = arr.Elem.(*ctype.Struct)
	}
	if !isStruct {
		return nil, false
	}
	f, ok := st.FieldByName(field)
	if !ok {
		return nil, false
	}
	var innerLen int64 = 1
	_, fieldIsArray := f.Type.(*ctype.Array)
	if fa, ok := f.Type.(*ctype.Array); ok {
		innerLen = fa.Len
	}
	if isArray {
		p = append(p, ctype.PathElem{Index: flat / innerLen})
	} else if flat >= innerLen {
		return nil, false
	}
	p = append(p, ctype.PathElem{Field: field})
	if fieldIsArray {
		p = append(p, ctype.PathElem{Index: flat % innerLen})
	} else if flat%innerLen != 0 {
		return nil, false
	}
	return p, true
}

// applyOutline rewrites one record of the nested→indirect transformation.
// Accesses to the nested member become a pointer load on the out structure
// followed by the access in the external pool; other members are remapped
// onto the out structure.
func (e *Engine) applyOutline(dst []trace.Record, st *ruleState, r *rules.OutlineRule, rec *trace.Record) ([]trace.Record, bool, error) {
	path := rec.Var.Path
	if len(path) < 2 || !path[0].IsIndex() || path[1].IsIndex() {
		return dst, false, nil
	}
	if err := e.establish(st, rec); err != nil {
		return dst, false, err
	}
	if path[1].Field != r.NestedField {
		// Plain member: remap onto the out structure.
		return e.appendMoved(dst, st, r.OutType, r.OutVar, rec)
	}

	// Nested member: lS1[i].mRarelyUsed.g → load lS2[i].mRarelyUsed (the
	// pointer), then access lStorage[i].g. "The transformed trace must
	// reflect this transformation because the new trace should reflect any
	// additional memory accesses which result from transforming structures."
	// The scratch path holds both: [i].mRarelyUsed, then [i].g.
	e.path = append(e.path[:0], path[0], ctype.PathElem{Field: r.NestedField}, path[0])
	e.path = append(e.path, path[2:]...)
	ptrPath, poolPath := e.path[:2], e.path[2:]
	ptrOff, _, err := ctype.Resolve(r.OutType, ptrPath)
	if err != nil {
		return dst, false, nil
	}
	poolOff, elem, err := ctype.Resolve(r.PoolType, poolPath)
	if err != nil {
		return dst, false, nil
	}
	ptrField, _ := r.OutType.Elem.(*ctype.Struct).FieldByName(r.NestedField)
	load := e.rewritten(rec, r.OutVar, ptrPath, st.bases[r.OutVar]+uint64(ptrOff), ptrField.Type.Size())
	load.Op = trace.Load
	out := e.rewritten(rec, r.PoolVar, poolPath, st.bases[r.PoolVar]+uint64(poolOff), elem.Size())
	return append(dst, load, out), true, nil
}

// appendMoved appends rec moved onto the out array t at outVar with its
// path unchanged — element index and member carry over. It serves the
// plain members of outline rules and every member of peel rules.
func (e *Engine) appendMoved(dst []trace.Record, st *ruleState, t ctype.Type, outVar string, rec *trace.Record) ([]trace.Record, bool, error) {
	off, elem, err := ctype.Resolve(t, rec.Var.Path)
	if err != nil {
		return dst, false, nil
	}
	return append(dst, e.rewritten(rec, outVar, rec.Var.Path, st.bases[outVar]+uint64(off), elem.Size())), true, nil
}

// applyStride rewrites one array access through the index formula and
// prepends the injected arithmetic accesses.
func (e *Engine) applyStride(dst []trace.Record, st *ruleState, r *rules.StrideRule, rec *trace.Record) ([]trace.Record, bool, error) {
	path := rec.Var.Path
	if len(path) != 1 || !path[0].IsIndex() {
		return dst, false, nil
	}
	i := path[0].Index
	if i < 0 || i >= r.InLen {
		return dst, false, nil
	}
	if err := e.establish(st, rec); err != nil {
		return dst, false, err
	}
	j, err := r.Formula.Eval(i)
	if err != nil {
		return dst, false, err
	}
	e.path = append(e.path[:0], ctype.PathElem{Index: j})
	out := e.rewritten(rec, r.OutVar, e.path, st.bases[r.OutVar]+uint64(j*r.Elem.Size()), r.Elem.Size())
	return append(e.appendInjects(dst, &out, r.Inject()), out), true, nil
}

// applyPeel rewrites one record of the structure-peeling transformation:
// lRec[i].f moves to the group array holding member f, preserving the
// element index.
func (e *Engine) applyPeel(dst []trace.Record, st *ruleState, r *rules.PeelRule, rec *trace.Record) ([]trace.Record, bool, error) {
	path := rec.Var.Path
	if len(path) < 2 || !path[0].IsIndex() || path[1].IsIndex() {
		return dst, false, nil
	}
	gi, ok := r.ByField[path[1].Field]
	if !ok {
		return dst, false, nil
	}
	if err := e.establish(st, rec); err != nil {
		return dst, false, err
	}
	group := r.Groups[gi]
	return e.appendMoved(dst, st, group.Type, group.Var, rec)
}

// appendInjects appends the rule's inject list to dst as records placed
// before the transformed access model. Variables seen in the trace reuse
// their real addresses; unseen ones (stride temporaries like ITEMSPERLINE)
// get stable synthetic stack slots.
func (e *Engine) appendInjects(dst []trace.Record, model *trace.Record, injs []rules.InjectAccess) []trace.Record {
	for _, inj := range injs {
		var rec trace.Record
		if prev, ok := e.lastScalar[inj.Var]; ok {
			rec = prev
			rec.Func = model.Func
		} else {
			addr, ok := e.synthAddr[inj.Var]
			if !ok {
				addr = e.synthNext
				e.synthNext += 16
				e.synthAddr[inj.Var] = addr
			}
			rec = trace.Record{
				Func:   model.Func,
				HasSym: true,
				Vis:    trace.Local,
				Frame:  0,
				Thread: model.Thread,
				Var:    ctype.AccessExpr{Root: inj.Var},
			}
			if rec.Thread == 0 {
				rec.Thread = 1
			}
			rec.Addr = addr
		}
		rec.Op = trace.Op(inj.Op)
		rec.Size = inj.Size
		dst = append(dst, rec)
	}
	return dst
}
