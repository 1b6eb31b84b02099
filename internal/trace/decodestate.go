package trace

import (
	"sync"

	"tracedst/internal/telemetry"
)

// decodeState is the memory a .glb stream decodes through: the current
// block's records, the payload buffer (BinaryReader only) and the block
// decoder with its slot table and intern tables. A BinaryReader or
// IndexedTrace.Source takes one from decodeStates at its first block and
// gives it back at its stream's sticky end — the call that returns io.EOF
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

// decodeStates holds the idle states. It keeps a state whatever its size:
// sync.Pool frees idle ones after two collections, and a reset costs at
// most one clear of each intern index, which the largest stream the state
// has served sized (8 MiB per table at the maxInternedStrings cap).
var decodeStates = sync.Pool{New: func() any {
	// trace.decode.states against trace.decode.files is the reuse rate.
	telemetry.Default().Counter("trace.decode.states").Inc()
	return &decodeState{dec: blockDecoder{intern: NewInterner()}}
}}

func getDecodeState() *decodeState { return decodeStates.Get().(*decodeState) }

// release clears st and gives it back to the pool; st must not be used
// afterwards. The record buffer is zeroed up to its capacity and the slot
// table is zeroed, so the pool keeps no record's strings alive and a batch
// read after its stream ended holds zero records until another stream
// takes the state. A nil st is a no-op.
func (st *decodeState) release() {
	if st == nil {
		return
	}
	clear(st.recs[:cap(st.recs)])
	st.recs = st.recs[:0]
	clear(st.dec.slots[:cap(st.dec.slots)])
	st.dec.slots = st.dec.slots[:0]
	st.dec.intern.reset()
	decodeStates.Put(st)
}
