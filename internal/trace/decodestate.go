package trace

import (
	"bufio"
	"io"
	"sync"

	"tracedst/internal/telemetry"
)

// decodeState is the memory a stream decodes through: the read buffer
// (Reader and BinaryReader only), the current batch's records, the payload
// buffer (BinaryReader only), and the block decoder with its slot table
// (.glb only) and intern tables. A Reader or BinaryReader takes an idle
// one when it opens, and IndexedTrace.Source at its first block; each
// gives it back at its stream's sticky end — the call that returns io.EOF
// or a decoding error — or when its open fails. So a process that decodes
// stream after stream (a tracedstd job, a shard, a validation pass) reuses
// the buffers of the streams before it instead of growing its own, and
// finds every spelling they interned. A stream its consumer abandons
// keeps its state until the collector takes it.
//
// Recycling rests on the batch contract: a batch is valid until the next
// call, so once a stream has ended no consumer still reads its records.
// What records keep beyond their batch — interned strings and carved
// paths — is never overwritten, so the intern tables that hold it are
// kept as they are, and records of later streams share it. The read
// buffer goes back reset to no reader, so an idle state keeps no input
// open.
type decodeState struct {
	br      *bufio.Reader
	recs    []Record
	payload []byte
	dec     blockDecoder
}

// idleStates holds the states no stream decodes through. A stream takes
// the state released last, whose tables know the spellings of the latest
// streams, and a state is made only when the list is empty, so the list
// never holds more states than once decoded at the same time. Idle states
// stay out of the collector's reach: each keeps its buffers — among them a
// 64 KiB read buffer, 256 KiB once a BinaryReader opened outside
// OpenReader grew it — and at most maxInternedStrings spellings per intern
// table, which for a table of one-element access expressions is about
// 105 MiB.
var idleStates struct {
	sync.Mutex
	list []*decodeState
}

// getDecodeState takes an idle state, or makes one.
func getDecodeState() *decodeState {
	idleStates.Lock()
	if n := len(idleStates.list); n > 0 {
		st := idleStates.list[n-1]
		idleStates.list[n-1] = nil
		idleStates.list = idleStates.list[:n-1]
		idleStates.Unlock()
		return st
	}
	idleStates.Unlock()
	// trace.decode.states against trace.decode.files is the reuse rate.
	telemetry.Default().Counter("trace.decode.states").Inc()
	return &decodeState{dec: blockDecoder{intern: NewInterner()}}
}

// reader returns r buffered for a stream on st: r itself when it is a
// bufio.Reader of at least minSize bytes, else st's read buffer, reset to
// read r and grown to at least size bytes first.
func (st *decodeState) reader(r io.Reader, minSize, size int) *bufio.Reader {
	if br, ok := r.(*bufio.Reader); ok && br.Size() >= minSize {
		return br
	}
	if st.br == nil || st.br.Size() < size {
		st.br = bufio.NewReaderSize(nil, size)
	}
	st.br.Reset(r)
	return st.br
}

// release clears st and puts it back on the idle list; st must not be used
// afterwards. The read buffer is reset to no reader. The record buffer is
// zeroed up to its capacity and the slot table is zeroed, so a batch read
// after its stream ended holds zero records until another stream takes
// the state. The intern tables keep their spellings, and the spellings the
// stream made are added to trace.decode.spellings. A nil st is a no-op.
func (st *decodeState) release() {
	if st == nil {
		return
	}
	if st.br != nil {
		st.br.Reset(nil)
	}
	clear(st.recs[:cap(st.recs)])
	st.recs = st.recs[:0]
	clear(st.dec.slots[:cap(st.dec.slots)])
	st.dec.slots = st.dec.slots[:0]
	telemetry.Default().Counter("trace.decode.spellings").Add(int64(st.dec.intern.endStream()))
	idleStates.Lock()
	idleStates.list = append(idleStates.list, st)
	idleStates.Unlock()
}
