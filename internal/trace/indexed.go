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
		// A footer's blocks must chain from the preamble to the footer
		// block: the first link is checked here, the rest by chained.
		start := int64(len(data) - len(body))
		switch {
		case len(ix.Offsets) > 0 && ix.Offsets[0] != start:
			t.footerErr = fmt.Errorf("trace: block-index footer: entry 0 at offset %d, but the first block starts at %d", ix.Offsets[0], start)
			ix = nil
		case len(ix.Offsets) == 0 && !t.recordFreeFrom(start):
			t.footerErr = fmt.Errorf("trace: block-index footer: no entries, but the frame at offset %d is not the footer's", start)
			ix = nil
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
		payloadLen, recCount, n, err := parseFrame(p, ord)
		if err != nil {
			return err
		}
		p = p[n:]
		off += int64(n)
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
// trace's data blocks; a block that breaks a footer index's chain ends the
// stream with an error in either mode. Sources over disjoint ranges are
// independent and safe to drive from different goroutines.
func (t *IndexedTrace) Source(lo, hi int, opts DecodeOptions) RecordSource {
	if lo < 0 {
		lo = 0
	}
	if hi > t.NumBlocks() {
		hi = t.NumBlocks()
	}
	return &blockRangeSource{t: t, opts: opts, cur: lo, hi: hi}
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

// rangeKey names blocks [lo, hi) of t to getDecodeState, so that a source
// over the same blocks of a trace of the same size (a shard of a trace
// decoded again) takes the state that decoded them before. Two inputs
// that share a key only share a preference.
func (t *IndexedTrace) rangeKey(lo, hi int) uint64 {
	return uint64(t.index.Records)<<32 ^ uint64(lo)<<16 ^ uint64(hi) | 1
}

// blockRangeSource decodes a contiguous block range out of the mapping.
type blockRangeSource struct {
	t    *IndexedTrace
	opts DecodeOptions
	cur  int
	hi   int
	st   *decodeState // from the first block to the stream's end; see decodeState
	bad  int
	err  error
}

func (s *blockRangeSource) Header() (Header, error) { return s.t.header, nil }
func (s *blockRangeSource) HasHeader() bool         { return s.t.hasHdr }
func (s *blockRangeSource) BadLines() int           { return s.bad }

func (s *blockRangeSource) NextBatch() ([]Record, error) {
	if s.err != nil {
		return nil, s.err
	}
	for s.cur < s.hi {
		i := s.cur
		s.cur++
		framed, recCount, end, err := s.t.frameAt(i)
		if err != nil {
			return nil, s.end(err)
		}
		if s.st == nil {
			s.st = getDecodeState(s.t.rangeKey(i, s.hi))
		}
		recs, derr := s.st.dec.checkAndDecode(framed, recCount, s.st.recs[:0])
		s.st.recs = recs
		if derr != nil {
			if err := s.opts.skip(&BadLineError{Line: i + 1, Err: derr}, &s.bad); err != nil {
				return nil, s.end(err)
			}
			continue
		}
		if err := s.t.chained(i, end); err != nil {
			return nil, s.end(err)
		}
		if len(recs) == 0 {
			continue
		}
		return recs, nil
	}
	return nil, s.end(io.EOF)
}

// end makes err the stream's sticky result and gives the decode state
// back.
func (s *blockRangeSource) end(err error) error {
	s.err = err
	s.st.release()
	s.st = nil
	return err
}

// checkAndDecode CRC-checks a framed payload (the CRC the frame carries
// in its first 4 bytes, then the payload) and appends its records to recs.
func (d *blockDecoder) checkAndDecode(framed []byte, recCount int, recs []Record) ([]Record, error) {
	payload := framed[4:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(framed) {
		return recs, ErrBlockChecksum
	}
	return d.decode(payload, recCount, recs)
}

// frameAt parses the frame of data block i and returns its crc+payload
// bytes (crc in the first 4 bytes), its record count and the offset where
// it ends.
func (t *IndexedTrace) frameAt(i int) ([]byte, int, int64, error) {
	off := t.index.Offsets[i]
	if off < 0 || off >= int64(len(t.data)) {
		return nil, 0, 0, fmt.Errorf("trace: block %d: index offset %d out of range", i+1, off)
	}
	p := t.data[off:]
	payloadLen, recCount, n, err := parseFrame(p, i+1)
	if err != nil {
		return nil, 0, 0, err
	}
	p = p[n:]
	if int64(recCount) != t.index.Counts[i] {
		return nil, 0, 0, fmt.Errorf("trace: block %d: frame says %d records, index says %d", i+1, recCount, t.index.Counts[i])
	}
	if len(p) < 4+int(payloadLen) {
		return nil, 0, 0, fmt.Errorf("trace: block %d: truncated payload: %w", i+1, io.ErrUnexpectedEOF)
	}
	return p[:4+payloadLen], int(recCount), off + int64(n) + 4 + int64(payloadLen), nil
}

// chained checks a footer's index at data block i, which decoded cleanly
// and ends at end: the next entry must start there, and after the last
// entry no data block may follow, or the index has left a block out and
// its records would be dropped unnoticed. A block that fails to decode is
// not checked: its frame may be what is damaged.
func (t *IndexedTrace) chained(i int, end int64) error {
	switch {
	case !t.footer:
		return nil
	case i+1 < len(t.index.Offsets):
		if next := t.index.Offsets[i+1]; next != end {
			return fmt.Errorf("trace: block %d: ends at offset %d, but the block-index footer lists the next block at %d", i+1, end, next)
		}
	case !t.recordFreeFrom(end):
		return fmt.Errorf("trace: block %d: the block-index footer lists no later block, but the frame at offset %d is not the footer's", i+1, end)
	}
	return nil
}

// recordFreeFrom reports whether, as the serial reader sees it, no data
// block starts at or after off: the frames from off on are record-free
// (the footer's block), the last possibly cut short by the end of the
// trace.
func (t *IndexedTrace) recordFreeFrom(off int64) bool {
	for p := t.data[off:]; len(p) > 0; {
		payloadLen, recCount, n, err := parseFrame(p, 0)
		if err != nil || recCount != 0 {
			return false
		}
		if uint64(len(p)-n) < 4+payloadLen {
			return true
		}
		p = p[n+4+int(payloadLen):]
	}
	return true
}
