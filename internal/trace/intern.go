// Byte-keyed, typed interning for the trace decoders. Every record carries
// a function name and, with symbol information, a parsed access expression;
// a trace spells the same few thousand of them over and over (or, for a
// large array walked element by element, a hundred thousand of them a few
// times each). The Interner resolves each distinct spelling once, and the
// binary decoder's per-block slot table (binary.go) asks it at most once per
// string-table entry and role.
package trace

import (
	"hash/maphash"

	"tracedst/internal/ctype"
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
// Cached access expressions share their parsed Path across records; records
// from an interning decoder must therefore be treated as read-only (which
// every consumer in this repository already does — transformations build
// fresh paths). Interned paths are carved from a slab and capped at their
// length, so an append by a consumer copies rather than overwriting a
// neighbour. Strings and carved paths are never overwritten, so the tables
// outlive the stream that filled them: a decode state's Interner serves
// stream after stream, and each allocates only the spellings no stream
// before it interned (see endStream). An Interner is not safe for
// concurrent use; give each decoding goroutine its own.
type Interner struct {
	funcs internTable[string]
	vars  internTable[ctype.AccessExpr]
	// path is scratch the parser builds paths in; slab is the storage
	// interned paths are carved from (see carve).
	path ctype.Path
	slab ctype.Path
	// made counts the spellings made since the last endStream: a string
	// per intern miss, and for an access expression a parse and a carved
	// path.
	made int
}

// Path slab sizes, in path elements: the first slab, and the cap the
// doubling stops at. Slab memory is never reused, since records keep
// referencing their paths.
const (
	firstSlabElems = 64
	slabElems      = 4096
)

// NewInterner returns an empty intern table set.
func NewInterner() *Interner {
	seed := maphash.MakeSeed()
	return &Interner{funcs: internTable[string]{seed: seed}, vars: internTable[ctype.AccessExpr]{seed: seed}}
}

// ParseRecord parses one trace line, interning Func and Var through the
// table. The line bytes are not retained.
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

// internVar returns the cached parsed access expression for b, parsing and
// adding it on first sight. The returned expression shares its Path with
// every other record carrying the same spelling.
func (in *Interner) internVar(b []byte) (ctype.AccessExpr, error) {
	if v := in.vars.ref(b); v != nil {
		return *v, nil
	}
	s := string(b)
	v, err := ctype.ParseAccessInto(in.path, s)
	in.path = v.Path[:0]
	if err != nil {
		return ctype.AccessExpr{}, err
	}
	v.Path = in.carve(v.Path)
	in.vars.insert(s, v)
	in.made++
	return v, nil
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
	return made
}

// carve copies p into the path slab and returns the copy, capped at its
// length; an empty path stays nil, as ParseAccess returns it. Slabs start
// small and double up to slabElems, so a decoder of a short trace does not
// pay for a full slab.
func (in *Interner) carve(p ctype.Path) ctype.Path {
	if len(p) == 0 {
		return nil
	}
	if cap(in.slab)-len(in.slab) < len(p) {
		in.slab = make(ctype.Path, 0, max(min(2*cap(in.slab), slabElems), firstSlabElems, len(p)))
	}
	n := len(in.slab)
	in.slab = append(in.slab, p...)
	return in.slab[n:len(in.slab):len(in.slab)]
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
	if t.n == 0 {
		return nil
	}
	h := maphash.Bytes(t.seed, b)
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; t.slots[i] != 0; i = (i + 1) & mask {
		if loc := t.slots[i]; loc>>tagShift == tag(h) {
			if e := t.entry(loc); e.key == string(b) {
				return &e.val
			}
		}
	}
	return nil
}

// insert adds key, which must not be present, with its value. A table
// holding maxInternedStrings entries starts over if it still holds
// spellings of earlier streams: it drops every entry and takes key. One
// that the current stream filled alone stays as it is.
func (t *internTable[V]) insert(key string, val V) {
	if !t.room(1) {
		if !t.inherited {
			return
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
