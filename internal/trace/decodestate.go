package trace

import (
	"sync"
	"sync/atomic"

	"tracedst/internal/telemetry"
)

// decodeState is the memory a .glb stream decodes through: the current
// block's records, the payload buffer (BinaryReader only) and the block
// decoder with its slot table and intern tables. A BinaryReader or
// IndexedTrace.Source takes an idle one at its first block and gives it
// back at its stream's sticky end — the call that returns io.EOF
// or a decoding error — so a process that decodes stream after stream
// (a tracedstd job, a shard, a validation pass) reuses the buffers of the
// streams before it instead of growing its own. A stream its consumer
// abandons keeps its state until the collector takes it.
//
// Recycling rests on the batch contract: a batch is valid until the next
// call, so once a stream has ended no consumer still reads its records.
// What records keep beyond their batch — interned strings and carved
// paths — is never recycled (see Interner.reset).
type decodeState struct {
	recs    []Record
	payload []byte
	dec     blockDecoder
}

// Idle states wait in decodeStates and lastState. A state is kept
// whatever its size: a reset costs at most one clear of each intern
// index, which the largest stream the state has served sized (8 MiB per
// table at the maxInternedStrings cap).
//
// sync.Pool frees idle states after two collections, but it keeps a
// released state in the releasing P's private slot, which no other P can
// take, and a reader resumes after its file reads on whichever P is free:
// with the pool alone, a loop decoding one stream after another would make
// a fresh state on a varying share of its streams. lastState holds one
// state that any P takes when the pool has none for it, and only a state
// that finds lastState full goes to the pool, so streams decoded one after
// another reuse one state. The collector never frees lastState's state.
var (
	decodeStates sync.Pool
	lastState    atomic.Pointer[decodeState]
)

// getDecodeState takes an idle state, or makes one.
func getDecodeState() *decodeState {
	if st, _ := decodeStates.Get().(*decodeState); st != nil {
		return st
	}
	if st := lastState.Swap(nil); st != nil {
		return st
	}
	// trace.decode.states against trace.decode.files is the reuse rate.
	telemetry.Default().Counter("trace.decode.states").Inc()
	return &decodeState{dec: blockDecoder{intern: NewInterner()}}
}

// release clears st and gives it back, to lastState if that is empty and
// to the pool otherwise; st must not be used afterwards. The record buffer
// is zeroed up to its capacity and the slot table is zeroed, so an idle
// state keeps no record's strings alive and a batch read after its stream
// ended holds zero records until another stream takes the state. A nil st
// is a no-op.
func (st *decodeState) release() {
	if st == nil {
		return
	}
	clear(st.recs[:cap(st.recs)])
	st.recs = st.recs[:0]
	clear(st.dec.slots[:cap(st.dec.slots)])
	st.dec.slots = st.dec.slots[:0]
	st.dec.intern.reset()
	if !lastState.CompareAndSwap(nil, st) {
		decodeStates.Put(st)
	}
}
