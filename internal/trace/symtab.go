package trace

import "sync"

// SymID is an interned symbol identifier issued by a SymTab. The zero value
// means "not interned": consumers must fall back to the record's string
// fields (or their own interning) when they see it. Valid ids start at 1.
type SymID int32

// SymTab interns symbol strings (function names, variable roots) into dense
// integer ids so the simulation hot path can attribute statistics by slice
// index instead of hashing a string per access.
//
// A SymTab is safe for concurrent use: Intern takes a write lock, Lookup,
// Name and Len take a read lock. The intended pattern is to intern a record
// slice once (InternRecords) before fan-out, after which readers never
// mutate the table.
type SymTab struct {
	mu    sync.RWMutex
	ids   map[string]SymID
	names []string // names[0] is the reserved "uninterned" slot
}

// NewSymTab returns an empty table.
func NewSymTab() *SymTab {
	return &SymTab{
		ids:   make(map[string]SymID),
		names: []string{""},
	}
}

// Intern returns the id for name, assigning the next free id on first use.
func (t *SymTab) Intern(name string) SymID {
	t.mu.RLock()
	id, ok := t.ids[name]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[name]; ok {
		return id
	}
	id = SymID(len(t.names))
	t.ids[name] = id
	t.names = append(t.names, name)
	return id
}

// Lookup returns the id for name without assigning one.
func (t *SymTab) Lookup(name string) (SymID, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	id, ok := t.ids[name]
	return id, ok
}

// Name returns the string for id ("" for the zero id or out-of-range ids).
func (t *SymTab) Name(id SymID) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if id <= 0 || int(id) >= len(t.names) {
		return ""
	}
	return t.names[id]
}

// Len returns the number of interned symbols (excluding the reserved slot).
func (t *SymTab) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.names) - 1
}

// InternRecords fills FuncID and VarID on every record from t, overwriting
// any ids a transformation may have copied from another table. Records
// without symbol information keep VarID zero. After interning, the slice can
// be shared read-only across goroutines that attribute against t.
func InternRecords(t *SymTab, recs []Record) {
	for i := range recs {
		r := &recs[i]
		r.FuncID = t.Intern(r.Site.Func())
		if r.HasSym {
			r.VarID = t.Intern(r.Site.Var().Root)
		} else {
			r.VarID = 0
		}
	}
}
