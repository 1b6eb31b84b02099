// Batch-streaming trace consumption. RecordSource is the package's one
// decode contract, and every pipeline stage (xform, dinero, the validator,
// the CLI front ends) consumes it: records arrive in batches whose backing
// storage is reused between calls, so a stage holds O(batch) records live
// no matter how large the trace is. The serial readers (Reader,
// BinaryReader), mmap-backed block ranges (IndexedTrace.Source) and the
// Validator are sources with the same strict/lenient BadLineError
// semantics; SliceSource bridges in-memory slices, and ReadSource
// materializes any source.
package trace

import (
	"io"
	"slices"
)

// DefaultBatchRecords is the batch size streaming consumers use when the
// caller does not specify one. It matches DefaultBlockRecords so binary
// traces stream block-at-a-time with no copying or re-batching.
const DefaultBatchRecords = DefaultBlockRecords

// RecordSource yields a trace as a sequence of record batches.
//
// NextBatch returns a non-empty batch with a nil error, or a nil batch
// with io.EOF at a clean end of stream, or a nil batch with the decoding
// error that stopped the stream (sticky: subsequent calls return it
// again). The returned slice is only valid until the next NextBatch call —
// consumers that need records to outlive the call must copy them. Once a
// stream has ended, the memory behind its batches serves other streams.
type RecordSource interface {
	// Header returns the trace header (zero when the source had none).
	Header() (Header, error)
	// HasHeader reports whether the trace carried a START header;
	// meaningful after Header or the first NextBatch.
	HasHeader() bool
	// NextBatch returns the next batch of records (see the interface
	// comment for the contract).
	NextBatch() ([]Record, error)
	// BadLines returns how many damaged units (lines or blocks) were
	// skipped so far in lenient mode.
	BadLines() int
}

// SliceSource adapts an in-memory record slice into a RecordSource, for
// callers bridging materialized traces into streaming consumers.
type SliceSource struct {
	header Header
	hasHdr bool
	recs   []Record
	batch  int
	off    int
}

// NewSliceSource returns a SliceSource over recs. batch <= 0 selects
// DefaultBatchRecords. Batches alias recs (no copying).
func NewSliceSource(h Header, hasHdr bool, recs []Record, batch int) *SliceSource {
	if batch <= 0 {
		batch = DefaultBatchRecords
	}
	return &SliceSource{header: h, hasHdr: hasHdr, recs: recs, batch: batch}
}

// Header returns the header passed at construction.
func (s *SliceSource) Header() (Header, error) { return s.header, nil }

// HasHeader reports whether the original trace carried a header.
func (s *SliceSource) HasHeader() bool { return s.hasHdr }

// BadLines always returns zero: the records were already decoded.
func (s *SliceSource) BadLines() int { return 0 }

// NextBatch returns the next batch-sized window of the slice.
func (s *SliceSource) NextBatch() ([]Record, error) {
	if s.off >= len(s.recs) {
		return nil, io.EOF
	}
	end := s.off + s.batch
	if end > len(s.recs) {
		end = len(s.recs)
	}
	b := s.recs[s.off:end]
	s.off = end
	return b, nil
}

// ReadSource drains src into a slice — the bridge back from streaming to
// materialized consumers (reuse-distance analysis, miss timelines) that
// genuinely need the whole trace. It is every ReadAll. Each batch is
// copied out once as it arrives and the copies are joined once at the
// end, so a drain allocates twice the result whatever its length, where a
// growing slice would copy its prefix over and over.
func ReadSource(src RecordSource) ([]Record, error) {
	var parts [][]Record
	n := 0
	for {
		batch, err := src.NextBatch()
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return join(parts, n), err
		}
		parts = append(parts, slices.Clone(batch))
		n += len(batch)
	}
}

// join concatenates parts, n records in all, reusing a lone part.
func join(parts [][]Record, n int) []Record {
	switch len(parts) {
	case 0:
		return nil
	case 1:
		return parts[0]
	}
	recs := make([]Record, 0, n)
	for _, p := range parts {
		recs = append(recs, p...)
	}
	return recs
}
