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
// What records keep beyond their batch — their sites, with the interned
// strings and carved paths the sites hold — is never overwritten, so the
// intern tables that hold it are kept as they are, and records of later
// streams share it. The read
// buffer goes back reset to no reader, so an idle state keeps no input
// open.
type decodeState struct {
	br      *bufio.Reader
	recs    []Record
	payload []byte
	dec     blockDecoder
	// from names the input the state last decoded, as its taker named it
	// (see getDecodeState); 0 names none.
	from uint64
}

// idleStates holds the states no stream decodes through. A stream takes
// the state released last, whose tables know the spellings of the latest
// streams, and a state is made only when the list is empty, so the list
// never holds more states than once decoded at the same time. Idle states
// stay out of the collector's reach: each keeps its buffers — among them a
// 64 KiB read buffer, 256 KiB once a BinaryReader opened outside
// OpenReader grew it, and a 96 KiB batch of 4,096 records — and at most
// maxInternedStrings entries per intern table, which for a table of
// one-element access expressions, with the sites that hold them, is about
// 137 MiB (docs/service.md).
var idleStates struct {
	sync.Mutex
	list []*decodeState
}

// getDecodeState takes an idle state for the input from names, or makes
// one. A taker that names its input (from nonzero) gets the idle state
// that last decoded the same input, if one is idle: its tables hold that
// input's spellings and sites, where another state's would learn them
// again. Otherwise it gets the state released last.
func getDecodeState(from uint64) *decodeState {
	idleStates.Lock()
	if n := len(idleStates.list); n > 0 {
		i := n - 1
		for j := n - 1; from != 0 && j >= 0; j-- {
			if idleStates.list[j].from == from {
				i = j
				break
			}
		}
		st := idleStates.list[i]
		copy(idleStates.list[i:], idleStates.list[i+1:])
		idleStates.list[n-1] = nil
		idleStates.list = idleStates.list[:n-1]
		idleStates.Unlock()
		st.from = from
		return st
	}
	idleStates.Unlock()
	// trace.decode.states against trace.decode.files is the reuse rate.
	telemetry.Default().Counter("trace.decode.states").Inc()
	return &decodeState{dec: blockDecoder{intern: NewInterner()}, from: from}
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
