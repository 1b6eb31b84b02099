// Indexed (seekable, shardable) access to binary traces. An IndexedTrace
// mmaps a .glb file and resolves its block index — from the optional
// footer when the writer emitted one, otherwise by one cheap frame walk
// (two varints plus a skip per block, no payload decoding). Block ranges
// then decode independently as RecordSources straight out of the mapping,
// so N workers can simulate disjoint shards of a trace far larger than RAM
// and merge their statistics.
package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// IndexedTrace is a binary trace opened for random block access.
type IndexedTrace struct {
	data      []byte
	unmap     func() error
	header    Header
	hasHdr    bool
	index     BlockIndex
	footer    bool  // index came from a footer rather than a scan
	footerErr error // why the footer was unusable (damage), nil otherwise
}

// parseBinaryPreamble decodes the fixed preamble of an in-memory binary
// trace (the magic must already have been verified) and returns the
// header, whether one was present, and the body following the preamble.
func parseBinaryPreamble(data []byte) (h Header, hasHdr bool, body []byte, err error) {
	p := data[BinaryMagicLen:]
	if len(p) < 1 {
		return Header{}, false, nil, fmt.Errorf("trace: short binary preamble: %w", io.ErrUnexpectedEOF)
	}
	flags := p[0]
	p = p[1:]
	pid, n := binary.Varint(p)
	if n <= 0 {
		return Header{}, false, nil, fmt.Errorf("trace: bad binary preamble pid")
	}
	p = p[n:]
	hasHdr = flags&1 != 0
	if hasHdr {
		h = Header{PID: int(pid)}
	}
	return h, hasHdr, p, nil
}

// OpenIndexed maps path and resolves its block index. The file must be a
// binary (.glb) trace; text traces have no block structure to seek in.
func OpenIndexed(path string) (*IndexedTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, unmap, err := mmapFile(f, st.Size())
	if err != nil {
		return nil, err
	}
	t, err := NewIndexedBytes(data)
	if err != nil {
		unmap()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	t.unmap = unmap
	return t, nil
}

// NewIndexedBytes is OpenIndexed over an in-memory trace (tests, network
// buffers). Close is a no-op.
func NewIndexedBytes(data []byte) (*IndexedTrace, error) {
	if DetectFormat(data) != FormatBinary {
		return nil, fmt.Errorf("trace: indexed access requires the binary format")
	}
	h, hasHdr, body, err := parseBinaryPreamble(data)
	if err != nil {
		return nil, err
	}
	t := &IndexedTrace{data: data, header: h, hasHdr: hasHdr}
	ix, err := parseFooter(data)
	if err != nil {
		// The footer is an optimization over data blocks that are still
		// intact, so footer damage degrades to a frame scan, not failure.
		t.footerErr = err
		ix = nil
	}
	if ix != nil {
		for i, off := range ix.Offsets {
			if off < int64(len(data)-len(body)) {
				t.footerErr = fmt.Errorf("trace: block-index footer: offset %d inside preamble in entry %d", off, i)
				ix = nil
				break
			}
		}
	}
	if ix != nil {
		t.index = *ix
		t.footer = true
		return t, nil
	}
	if err := t.scanIndex(body, int64(len(data)-len(body))); err != nil {
		return nil, err
	}
	return t, nil
}

// scanIndex builds the index by walking the frames, skipping record-free
// blocks (auxiliary payloads carry no records to shard over).
func (t *IndexedTrace) scanIndex(p []byte, off int64) error {
	ord := 0
	for len(p) > 0 {
		ord++
		start := off
		payloadLen, n := binary.Uvarint(p)
		if n <= 0 {
			return fmt.Errorf("trace: block %d: bad frame: %w", ord, io.ErrUnexpectedEOF)
		}
		p = p[n:]
		off += int64(n)
		if payloadLen > maxBlockPayload {
			return fmt.Errorf("trace: block %d: payload length %d exceeds limit", ord, payloadLen)
		}
		recCount, n := binary.Uvarint(p)
		if n <= 0 {
			return fmt.Errorf("trace: block %d: bad frame: %w", ord, io.ErrUnexpectedEOF)
		}
		p = p[n:]
		off += int64(n)
		if recCount > payloadLen {
			return fmt.Errorf("trace: block %d: record count %d exceeds payload %d", ord, recCount, payloadLen)
		}
		if len(p) < 4+int(payloadLen) {
			if recCount == 0 {
				// A record-free auxiliary block (e.g. the block-index
				// footer) torn off at the end of the file: every data
				// block scanned so far is intact, so salvage them.
				if t.footerErr == nil {
					t.footerErr = fmt.Errorf("trace: block %d: truncated record-free block: %w", ord, io.ErrUnexpectedEOF)
				}
				return nil
			}
			return fmt.Errorf("trace: block %d: truncated payload: %w", ord, io.ErrUnexpectedEOF)
		}
		p = p[4+payloadLen:]
		off += 4 + int64(payloadLen)
		if recCount == 0 {
			continue
		}
		t.index.Offsets = append(t.index.Offsets, start)
		t.index.Counts = append(t.index.Counts, int64(recCount))
		t.index.Records += int64(recCount)
	}
	return nil
}

// Close unmaps the file. The IndexedTrace and every RecordSource derived
// from it are invalid afterwards.
func (t *IndexedTrace) Close() error {
	if t.unmap == nil {
		return nil
	}
	u := t.unmap
	t.unmap = nil
	t.data = nil
	return u()
}

// Header returns the trace header (zero when absent).
func (t *IndexedTrace) Header() (Header, error) { return t.header, nil }

// HasHeader reports whether the trace carried a START header.
func (t *IndexedTrace) HasHeader() bool { return t.hasHdr }

// HasFooter reports whether the index came from a writer-emitted footer
// (false means it was rebuilt by a frame scan).
func (t *IndexedTrace) HasFooter() bool { return t.footer }

// FooterErr returns why a present-but-damaged block-index footer was
// discarded in favor of a frame scan (nil for a healthy footer or an
// unindexed trace). The index is still fully usable; the error exists so
// diagnostics like glcheck can surface the damage.
func (t *IndexedTrace) FooterErr() error { return t.footerErr }

// NumBlocks returns how many data blocks the trace holds.
func (t *IndexedTrace) NumBlocks() int { return t.index.NumBlocks() }

// Records returns the total record count across all blocks.
func (t *IndexedTrace) Records() int64 { return t.index.Records }

// Bytes returns the mapped file size.
func (t *IndexedTrace) Bytes() int64 { return int64(len(t.data)) }

// Index returns a copy of the block index.
func (t *IndexedTrace) Index() BlockIndex {
	return BlockIndex{
		Offsets: append([]int64(nil), t.index.Offsets...),
		Counts:  append([]int64(nil), t.index.Counts...),
		Records: t.index.Records,
	}
}

// Source returns a RecordSource over blocks [lo, hi) decoding straight
// from the mapping. Damage semantics follow opts exactly as in the serial
// reader, with BadLineError.Line carrying the 1-based position among the
// trace's data blocks. Sources over disjoint ranges are independent and
// safe to drive from different goroutines.
func (t *IndexedTrace) Source(lo, hi int, opts DecodeOptions) RecordSource {
	if lo < 0 {
		lo = 0
	}
	if hi > t.NumBlocks() {
		hi = t.NumBlocks()
	}
	return &blockRangeSource{
		t:    t,
		opts: opts,
		cur:  lo,
		hi:   hi,
		dec:  blockDecoder{intern: NewInterner()},
	}
}

// ShardRanges splits the data blocks into up to n contiguous ranges of
// near-equal record count — the work division for sharded simulation. It
// returns [lo, hi) block-index pairs; fewer than n when the trace has
// fewer blocks.
func (t *IndexedTrace) ShardRanges(n int) [][2]int {
	nb := t.NumBlocks()
	if n < 1 {
		n = 1
	}
	if n > nb {
		n = nb
	}
	if n == 0 {
		return nil
	}
	ranges := make([][2]int, 0, n)
	target := t.index.Records / int64(n)
	lo := 0
	var acc int64
	for i := 0; i < nb; i++ {
		acc += t.index.Counts[i]
		// Close the shard once it reaches its share, keeping enough blocks
		// back for the remaining shards.
		if len(ranges) < n-1 && acc >= target && nb-i-1 >= n-len(ranges)-1 {
			ranges = append(ranges, [2]int{lo, i + 1})
			lo = i + 1
			acc = 0
		}
	}
	ranges = append(ranges, [2]int{lo, nb})
	return ranges
}

// blockRangeSource decodes a contiguous block range out of the mapping.
type blockRangeSource struct {
	t    *IndexedTrace
	opts DecodeOptions
	cur  int
	hi   int
	dec  blockDecoder
	recs []Record
	bad  int
	err  error
}

func (s *blockRangeSource) Header() (Header, error) { return s.t.header, nil }
func (s *blockRangeSource) HasHeader() bool         { return s.t.hasHdr }
func (s *blockRangeSource) BadLines() int           { return s.bad }

// badBlock mirrors BinaryReader.badBlock for a damaged block at index i.
func (s *blockRangeSource) badBlock(i int, err error) (bool, error) {
	ble := &BadLineError{Line: i + 1, Err: err}
	if s.opts.OnError != nil {
		s.opts.OnError(ble.Line, "", ble.Err)
	}
	if s.opts.Mode != Lenient {
		return false, ble
	}
	s.bad++
	if s.opts.MaxBadLines > 0 && s.bad > s.opts.MaxBadLines {
		return false, fmt.Errorf("%w (bad-line budget %d exhausted)", ble, s.opts.MaxBadLines)
	}
	return true, nil
}

func (s *blockRangeSource) NextBatch() ([]Record, error) {
	if s.err != nil {
		return nil, s.err
	}
	for s.cur < s.hi {
		i := s.cur
		s.cur++
		payload, recCount, err := s.t.frameAt(i)
		if err != nil {
			s.err = err
			return nil, err
		}
		if derr := s.checkAndDecode(payload, recCount); derr != nil {
			if ok, lerr := s.badBlock(i, derr); ok {
				continue
			} else {
				s.err = lerr
				return nil, lerr
			}
		}
		if len(s.recs) == 0 {
			continue
		}
		return s.recs, nil
	}
	s.err = io.EOF
	return nil, io.EOF
}

// checkAndDecode CRC-checks a payload (whose expected CRC the frame
// carries just before it) and decodes it into s.recs.
func (s *blockRangeSource) checkAndDecode(framed []byte, recCount int) error {
	crc := binary.LittleEndian.Uint32(framed[:4])
	payload := framed[4:]
	if crc32.ChecksumIEEE(payload) != crc {
		return ErrBlockChecksum
	}
	recs, err := s.dec.decode(payload, recCount, s.recs[:0])
	s.recs = recs
	return err
}

// frameAt parses the frame of data block i and returns its crc+payload
// bytes (crc in the first 4 bytes) and record count.
func (t *IndexedTrace) frameAt(i int) ([]byte, int, error) {
	off := t.index.Offsets[i]
	if off < 0 || off >= int64(len(t.data)) {
		return nil, 0, fmt.Errorf("trace: block %d: index offset %d out of range", i+1, off)
	}
	p := t.data[off:]
	payloadLen, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, 0, fmt.Errorf("trace: block %d: bad frame: %w", i+1, io.ErrUnexpectedEOF)
	}
	p = p[n:]
	if payloadLen > maxBlockPayload {
		return nil, 0, fmt.Errorf("trace: block %d: payload length %d exceeds limit", i+1, payloadLen)
	}
	recCount, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, 0, fmt.Errorf("trace: block %d: bad frame: %w", i+1, io.ErrUnexpectedEOF)
	}
	p = p[n:]
	if recCount > payloadLen {
		return nil, 0, fmt.Errorf("trace: block %d: record count %d exceeds payload %d", i+1, recCount, payloadLen)
	}
	if int64(recCount) != t.index.Counts[i] {
		return nil, 0, fmt.Errorf("trace: block %d: frame says %d records, index says %d", i+1, recCount, t.index.Counts[i])
	}
	if len(p) < 4+int(payloadLen) {
		return nil, 0, fmt.Errorf("trace: block %d: truncated payload: %w", i+1, io.ErrUnexpectedEOF)
	}
	return p[:4+payloadLen], int(recCount), nil
}
