// Byte-keyed, typed interning for the trace decoders. Every record names a
// function and, with symbol information, a parsed access expression; a
// trace spells the same few thousand of them over and over (or, for a
// large array walked element by element, a hundred thousand of them a few
// times each). The Interner resolves each distinct spelling once and each
// distinct (function, variable, frame, thread) quadruple to one shared
// Site, and the binary decoder's per-block slot table (binary.go) asks it
// at most once per string-table entry and function, frame and thread it is
// named with.
package trace

import (
	"encoding/binary"
	"hash/maphash"

	"tracedst/internal/ctype"
	"tracedst/internal/slab"
)

// maxInternedStrings caps each intern table so a pathological trace with an
// unbounded symbol population degrades to plain allocation instead of
// holding every distinct string alive. It also bounds what an idle decode
// state keeps of the streams before it.
const maxInternedStrings = 1 << 20

// Interner caches the strings a trace decoder produces — function names and
// variable access expressions — so that decoding a stream with a bounded
// symbol population settles at zero allocations per record. The tables are
// typed (a spelling interned as a function name is not also held as a
// variable, and the reverse) and byte-keyed: a lookup of bytes already seen
// allocates nothing, and a new spelling allocates its string once.
//
// Records of one (function, variable) spelling pair, frame and thread
// share one Site, and sites share their parsed Path; records from an
// interning decoder must therefore be treated as read-only (which every
// consumer in this repository already does — transformations build fresh
// sites). Interned paths are carved from a slab and capped at their
// length, so an append by a consumer copies rather than overwriting a
// neighbour. Strings, carved
// paths and sites are never overwritten, so the tables outlive the stream
// that filled them: a decode state's Interner serves stream after stream,
// and each allocates only the spellings and sites no stream before it
// made (see endStream). An Interner is not safe for concurrent use; give
// each decoding goroutine its own.
type Interner struct {
	funcs internTable[string]
	// vars maps an access expression to the site of the first function,
	// frame and thread seen accessing it, which holds the parsed
	// expression; sites holds the site of every other (function, variable,
	// frame, thread), and of each function's records that name no
	// variable, keyed by siteKey.
	vars  internTable[*Site]
	sites internTable[*Site]
	key   []byte
	// path is scratch the parser builds paths in; interned paths and
	// sites are carved from pathSlab and siteSlab.
	path     ctype.Path
	pathSlab slab.Slab[ctype.PathElem]
	siteSlab slab.Slab[Site]
	// made counts the spellings made since the last endStream: a string
	// per intern miss, and for an access expression a parse and a carved
	// path. Sites are not spellings and are not counted.
	made int
}

// NewInterner returns an empty intern table set.
func NewInterner() *Interner {
	seed := maphash.MakeSeed()
	return &Interner{
		funcs: internTable[string]{seed: seed},
		vars:  internTable[*Site]{seed: seed},
		sites: internTable[*Site]{seed: seed},
	}
}

// ParseRecord parses one trace line, sharing its Site with every record of
// the same function and variable spelling the table has seen. The line
// bytes are not retained.
func (in *Interner) ParseRecord(line []byte) (Record, error) {
	return parseRecordBytes(line, in)
}

// internFunc returns the cached string for b, adding it on first sight.
func (in *Interner) internFunc(b []byte) string {
	if s := in.funcs.ref(b); s != nil {
		return *s
	}
	s := string(b)
	in.funcs.insert(s, s)
	in.made++
	return s
}

// site returns the site of function fn accessing the variable spelled v
// (nil for a record without symbol information) in frame and thread (0
// but for a local), making it on first sight. A variable's first function,
// frame and thread find their site beside the parsed expression, at the
// cost of the one lookup a spelling takes; others take a second lookup.
// Past the table cap a site the stream cannot add is made at each sight,
// as a spelling is.
func (in *Interner) site(fn, v []byte, frame, thread int32) (*Site, error) {
	if v == nil {
		return in.otherSite(fn, nil, ctype.AccessExpr{}, 0, 0), nil
	}
	if p := in.vars.ref(v); p != nil {
		if s := *p; s.fn == string(fn) && s.frame == frame && s.thread == thread {
			return s, nil
		}
		return in.otherSite(fn, v, (*p).v, frame, thread), nil
	}
	return in.newVar(fn, v, frame, thread)
}

// otherSite returns the site of fn accessing x, spelled v (nil for none),
// in frame and thread, from the sites table, making it on first sight.
func (in *Interner) otherSite(fn, v []byte, x ctype.AccessExpr, frame, thread int32) *Site {
	in.key = siteKey(in.key[:0], fn, v, frame, thread)
	if s := in.sites.ref(in.key); s != nil {
		return *s
	}
	s := in.siteSlab.New(Site{fn: in.internFunc(fn), v: x, frame: frame, thread: thread})
	in.sites.insert(string(in.key), s)
	return s
}

// newVar parses and interns v, an access expression the table does not
// hold, with the site of fn accessing it in frame and thread as its first
// site.
func (in *Interner) newVar(fn, v []byte, frame, thread int32) (*Site, error) {
	f := in.internFunc(fn)
	s := string(v)
	x, err := ctype.ParseAccessInto(in.path, s)
	in.path = x.Path[:0]
	if err != nil {
		return nil, err
	}
	x.Path = in.pathSlab.Copy(x.Path)
	site := in.siteSlab.New(Site{fn: f, v: x, frame: frame, thread: thread})
	if !in.vars.room(1) && in.vars.inherited {
		// The insert starts the table over, dropping every first site;
		// the other sites go with them, so no spelling is held by two.
		in.sites.reset()
	}
	in.vars.insert(s, site)
	in.made++
	return site, nil
}

// siteKey appends the key of fn accessing v in frame and thread to dst:
// whether v is present, frame, thread, fn's length, fn, then v. No two
// sites share a key, whatever bytes the names hold.
func siteKey(dst, fn, v []byte, frame, thread int32) []byte {
	var hasVar byte
	if v != nil {
		hasVar = 1
	}
	dst = binary.AppendVarint(append(dst, hasVar), int64(frame))
	dst = binary.AppendVarint(dst, int64(thread))
	dst = binary.AppendUvarint(dst, uint64(len(fn)))
	return append(append(dst, fn...), v...)
}

// endStream closes a stream's use of the Interner and returns how many
// spellings the stream made. Everything interned stays for the streams
// after it, and counts from now on as earlier streams' spellings: a table
// full of them starts over when the next stream needs room (see insert).
func (in *Interner) endStream() int {
	made := in.made
	in.made = 0
	in.funcs.inherited = in.funcs.n > 0
	in.vars.inherited = in.vars.n > 0
	in.sites.inherited = in.sites.n > 0
	return made
}

// internTable maps byte strings to values: an open-addressing hash index
// over entries kept in chunks that never move. Lookups hash the caller's
// bytes directly, so a hit allocates nothing, and growing rehashes only
// the index — four bytes per slot — never the entries. A Go map keyed by
// string would hold each entry in a slot of its own, rebuilt whole at
// every growth step, which on a trace that walks a large array costs
// more than the entries themselves.
type internTable[V any] struct {
	seed maphash.Seed
	// slots holds entry locations with their keys' tags (see chunkShift),
	// and 0 where empty; its length is a power of two at least twice n.
	slots []uint32
	// chunks[:used] hold the entries; the rest are empty chunks a reset
	// kept for reuse.
	chunks [][]internEntry[V]
	used   int
	n      int
	// inherited is set while the table holds spellings of streams before
	// the current one.
	inherited bool
}

type internEntry[V any] struct {
	key string
	val V
}

// Entry chunk sizes: the first chunk, and the cap the doubling stops at.
// A slot packs tag<<tagShift | (chunk+1)<<chunkShift | offset, so the cap
// must stay at most 1<<chunkShift and the chunk count (at most
// maxInternedStrings / maxChunkEntries plus the ramp) below
// 1<<(tagShift-chunkShift). The tag is the top bits of the key's hash: a
// probe reads the entry of a slot only when the tags match, so a lookup
// in a table too large for the processor's caches touches little besides
// the index.
const (
	firstChunkEntries = 16
	maxChunkEntries   = 4096
	chunkShift        = 12
	tagShift          = 21
)

// ref returns the value stored for key b, in place, or nil when b is
// absent.
func (t *internTable[V]) ref(b []byte) *V {
	if e := t.find(b); e != nil {
		return &e.val
	}
	return nil
}

// find returns the entry stored for key b, in place, or nil when b is
// absent. Entries never move, so the pointer stays valid until a reset.
func (t *internTable[V]) find(b []byte) *internEntry[V] {
	if t.n == 0 {
		return nil
	}
	h := maphash.Bytes(t.seed, b)
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; t.slots[i] != 0; i = (i + 1) & mask {
		if loc := t.slots[i]; loc>>tagShift == tag(h) {
			if e := t.entry(loc); e.key == string(b) {
				return e
			}
		}
	}
	return nil
}

// insert adds key, which must not be present, with its value, and returns
// the stored entry. A table holding maxInternedStrings entries starts over
// if it still holds spellings of earlier streams: it drops every entry and
// takes key. One that the current stream filled alone stays as it is, and
// insert returns nil.
func (t *internTable[V]) insert(key string, val V) *internEntry[V] {
	if !t.room(1) {
		if !t.inherited {
			return nil
		}
		t.reset()
	}
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	last := t.used - 1
	if last < 0 || len(t.chunks[last]) == cap(t.chunks[last]) {
		// Past the chunks a reset kept, which come back in the order
		// they were made, the next chunk doubles the last.
		if t.used == len(t.chunks) {
			size := firstChunkEntries
			if last >= 0 {
				size = min(2*cap(t.chunks[last]), maxChunkEntries)
			}
			t.chunks = append(t.chunks, make([]internEntry[V], 0, size))
		}
		t.used++
		last++
	}
	t.chunks[last] = append(t.chunks[last], internEntry[V]{key, val})
	t.place(uint32(last+1)<<chunkShift | uint32(len(t.chunks[last])-1))
	t.n++
	return &t.chunks[last][len(t.chunks[last])-1]
}

// reset empties the table in place: the index is cleared and the entries
// in use are zeroed, so the table holds no key or value, while the index
// and the entry chunks stay allocated for the next keys. Records keep the
// dropped keys and values: they are value copies.
func (t *internTable[V]) reset() {
	clear(t.slots)
	for i, c := range t.chunks[:t.used] {
		clear(c)
		t.chunks[i] = c[:0]
	}
	t.used, t.n = 0, 0
	t.inherited = false
}

// room reports whether k more keys fit under maxInternedStrings.
func (t *internTable[V]) room(k int) bool { return t.n+k <= maxInternedStrings }

// entry returns the entry a slot locates, whatever its tag.
func (t *internTable[V]) entry(loc uint32) *internEntry[V] {
	loc &= 1<<tagShift - 1
	return &t.chunks[loc>>chunkShift-1][loc&(1<<chunkShift-1)]
}

// tag returns the bits of hash h a slot keeps above the entry location.
func tag(h uint64) uint32 { return uint32(h >> (32 + tagShift)) }

// place stores loc, tagged, in the first free slot of its key's probe
// sequence.
func (t *internTable[V]) place(loc uint32) {
	loc &= 1<<tagShift - 1
	h := maphash.String(t.seed, t.entry(loc).key)
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = tag(h)<<tagShift | loc
}

// grow doubles the index (the first one fits the first chunk at half
// load) and re-places every entry.
func (t *internTable[V]) grow() {
	old := t.slots
	t.slots = make([]uint32, max(2*len(old), 2*firstChunkEntries))
	for _, loc := range old {
		if loc != 0 {
			t.place(loc)
		}
	}
}
