package dinero

import (
	"unsafe"

	"tracedst/internal/trace"
)

// symID is a name's index in a MultiSim's symTab. Valid ids start at 1.
type symID int32

// symTab interns the function names and variable roots a MultiSim
// attributes to into dense ids, so attribution indexes slices. One
// MultiSim owns it and only its feeding goroutine touches it, so it takes
// no lock; MergeFrom matches symbols by name.
type symTab struct {
	ids   map[string]symID
	names []string // names[0] is the reserved zero id
}

func newSymTab() *symTab {
	return &symTab{ids: make(map[string]symID), names: []string{""}}
}

// intern returns name's id, assigning the next one on first use.
func (t *symTab) intern(name string) symID {
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := symID(len(t.names))
	t.ids[name] = id
	t.names = append(t.names, name)
	return id
}

// name returns id's name ("" for the zero id or an id out of range).
func (t *symTab) name(id symID) string {
	if id <= 0 || int(id) >= len(t.names) {
		return ""
	}
	return t.names[id]
}

// memoBits sizes the site memo: 128 slots of 16 bytes are 2 KiB. Over
// the four programs of benchrun's mixed trace, 64 slots caught 79.8% of
// accesses, 128 caught 82.2%, 256 84.0% and 1,024 87.9%. A simulator that
// is never released makes a memo per run, so the memo's size is what its
// allocation grows by; 128 slots keep most of the hits for half of 256's.
const (
	memoBits  = 7
	memoSlots = 1 << memoBits
)

// siteMemo is a direct-mapped cache of the ids a site's function and
// variable root have in one MultiSim's symTab. Records share one site per
// spelling, so a hit replaces two string-map lookups with a pointer
// compare. The key is the pointer itself, which the collector sees, so no
// other site can take a site's address while a slot names it.
type siteMemo [memoSlots]siteIDs

// siteIDs is one memo slot: fid is 0 in an empty slot, vid until a record
// with a symbol first needs it.
type siteIDs struct {
	site     *trace.Site
	fid, vid symID
}

// slot returns s's slot. The multiply spreads sites, which lie 56 or 64
// bytes apart, over the product's top bits.
func (memo *siteMemo) slot(s *trace.Site) *siteIDs {
	h := uint64(uintptr(unsafe.Pointer(s))) * 0x9e3779b97f4a7c15
	return &memo[h>>(64-memoBits)]
}

// resolve returns the ids rec is attributed to: its variable root (or
// nosym for a record without a symbol) and its function.
func (m *MultiSim) resolve(rec *trace.Record) (vid, fid symID) {
	e := m.st.memo.slot(rec.Site)
	if e.site != rec.Site || e.fid == 0 {
		*e = siteIDs{site: rec.Site, fid: m.syms.intern(rec.Site.Func())}
	}
	if !rec.HasSym {
		return m.nosymID, e.fid
	}
	if e.vid == 0 {
		e.vid = m.syms.intern(rec.Site.Var().Root)
	}
	return e.vid, e.fid
}
