// Batch-streaming trace consumption. RecordSource is the iterator contract
// the streaming pipeline (xform, dinero, the CLI front ends) consumes:
// records arrive in batches whose backing storage is reused between calls,
// so a pipeline stage holds O(batch) records live no matter how large the
// trace is. Sources wrap the serial readers (NewSource), in-memory slices
// (SliceSource) and mmap-backed block ranges (IndexedTrace.Source), all
// with the same strict/lenient BadLineError semantics as the readers they
// are built from.
package trace

import "io"

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

// NewSource adapts a serial reader into a RecordSource. batch <= 0 selects
// DefaultBatchRecords. A *BinaryReader streams zero-copy: NextBatch hands
// out each decoded block directly (the batch parameter is ignored and
// batches are block-sized), so no per-record copying happens between the
// decoder and the consumer.
func NewSource(rd RecordReader, batch int) RecordSource {
	if br, ok := rd.(*BinaryReader); ok {
		return &blockSource{rd: br}
	}
	if batch <= 0 {
		batch = DefaultBatchRecords
	}
	return &readerSource{rd: rd, buf: make([]Record, batch)}
}

// OpenSource sniffs r's container format (like OpenReader) and returns a
// streaming source over it: block-at-a-time for binary traces, batch-sized
// line chunks for text. batch <= 0 selects DefaultBatchRecords.
func OpenSource(r io.Reader, opts DecodeOptions, batch int) (RecordSource, FileFormat, error) {
	rd, format, err := OpenReader(r, opts)
	if err != nil {
		return nil, format, err
	}
	return NewSource(rd, batch), format, nil
}

// readerSource batches any RecordReader through a reusable buffer.
type readerSource struct {
	rd  RecordReader
	buf []Record
}

func (s *readerSource) Header() (Header, error) { return s.rd.Header() }
func (s *readerSource) HasHeader() bool         { return s.rd.HasHeader() }
func (s *readerSource) BadLines() int           { return s.rd.BadLines() }

func (s *readerSource) NextBatch() ([]Record, error) {
	n, err := s.rd.ReadBatch(s.buf)
	if n > 0 {
		// A partial batch before an error is still good data; the reader's
		// sticky error resurfaces on the next call.
		return s.buf[:n], nil
	}
	if err == nil {
		err = io.EOF
	}
	return nil, err
}

// blockSource is the zero-copy binary fast path: batches are the decoded
// blocks themselves.
type blockSource struct {
	rd *BinaryReader
}

func (s *blockSource) Header() (Header, error) { return s.rd.Header() }
func (s *blockSource) HasHeader() bool         { return s.rd.HasHeader() }
func (s *blockSource) BadLines() int           { return s.rd.BadLines() }

func (s *blockSource) NextBatch() ([]Record, error) { return s.rd.NextBlock() }

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
// genuinely need the whole trace.
func ReadSource(src RecordSource) ([]Record, error) {
	var recs []Record
	for {
		batch, err := src.NextBatch()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, batch...)
	}
}
