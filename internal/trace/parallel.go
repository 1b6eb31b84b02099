// Whole-trace decoding. DecodeBytes owns no decoder: a binary trace
// decodes as IndexedTrace blocks side by side, and text through the
// serial Reader. The serial readers define the contract (ordered OnError
// callbacks, line and block numbers, lenient bad-line budgets, the partial
// prefix returned before an error), so the parallel pass runs strict and
// silent, and any damage it meets sends the whole input through one serial
// BinaryReader with the caller's options.
package trace

import (
	"bytes"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
)

// DecodeBytes decodes an in-memory trace, a binary one on up to workers
// goroutines (<= 0 selects GOMAXPROCS). The format is sniffed from the
// magic. Results are identical to a serial Reader/BinaryReader decode:
// same records in the same order, same header, same error behaviour. When
// an error is returned, the accompanying records are exactly the serial
// readers' partial output — the prefix decoded before the failure, with
// lenient-mode skips applied in order.
func DecodeBytes(data []byte, opts DecodeOptions, workers int) (Header, bool, []Record, error) {
	if DetectFormat(data) == FormatBinary {
		if t, err := NewIndexedBytes(data); err == nil {
			if recs, ok := t.decodeAll(workers); ok {
				return t.header, t.hasHdr, recs, nil
			}
		}
	}
	rd, _, err := OpenReader(bytes.NewReader(data), opts)
	if err != nil {
		return Header{}, false, nil, err
	}
	h, err := rd.Header()
	if err != nil && err != io.EOF {
		return h, rd.HasHeader(), nil, err
	}
	recs, err := rd.ReadAll()
	return h, rd.HasHeader(), recs, err
}

// decodeAll decodes every data block strictly, on up to workers
// goroutines that each take the next undecoded block, straight into one
// slice sized by the index. ok is false when any block fails to decode.
func (t *IndexedTrace) decodeAll(workers int) (recs []Record, ok bool) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if t.index.Records > int64(len(t.data)/minRecordBytes) {
		// Some block must fail: its records cannot all fit its payload.
		// Do not size a slice by what a damaged frame claims.
		return nil, false
	}
	nb := t.NumBlocks()
	offs := make([]int64, nb+1)
	for i, c := range t.index.Counts {
		offs[i+1] = offs[i] + c
	}
	recs = make([]Record, t.index.Records)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for range min(workers, nb) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := getDecodeState(0)
			defer st.release()
			for i := int(next.Add(1) - 1); i < nb && !failed.Load(); i = int(next.Add(1) - 1) {
				framed, n, end, err := t.frameAt(i)
				if err == nil {
					// frameAt matched n to the index that sized recs.
					_, err = st.dec.checkAndDecode(framed, n, recs[offs[i]:offs[i]:offs[i+1]])
				}
				if err == nil {
					err = t.chained(i, end)
				}
				if err != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return recs, !failed.Load()
}
