// Block-framed binary trace format (.glb).
//
// Layout:
//
//	preamble := magic[6] flags:u8 pid:svarint
//	block    := payloadLen:uvarint recCount:uvarint crc32:u32le payload
//	payload  := strCount:uvarint { len:uvarint bytes }* record*
//	record   := tag:u8 addrDelta:svarint size:svarint funcIdx:uvarint
//	            [ frame:svarint thread:svarint ]   (local only)
//	            [ varIdx:uvarint ]                 (hasSym only)
//
// flags bit0 records whether the source trace had a START header. The tag
// byte packs the op index (bits 0-1), hasSym (bit 2), local (bit 3) and
// aggregate (bit 4). Addresses are delta-encoded against the previous
// record in the same block (starting from zero), so blocks decode
// independently: each carries its own string table (function names and
// canonical variable access expressions) and a CRC32 (IEEE) over its
// payload. That framing is what makes parallel decode and lenient
// block-skip recovery possible.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/maphash"
	"io"
	"slices"
	"unsafe"
)

// DefaultBlockRecords is how many records a BinaryWriter packs per block by
// default. Big enough to amortize the string table, small enough that a
// damaged block loses little and parallel decode has work to hand out.
const DefaultBlockRecords = 4096

// maxBlockPayload caps a block's declared payload size so a corrupt length
// field cannot drive a giant allocation.
const maxBlockPayload = 1 << 30

// maxFrameHeader is the longest frame header: two uvarints.
const maxFrameHeader = 2 * binary.MaxVarintLen64

// errVarintOverflow is binary.ReadUvarint's error for a varint longer than
// 64 bits.
var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

// parseFrame decodes the frame header at the start of p — the payload
// length and record count of block ord (1-based) — and returns them with
// the header's length. It is the one check of a frame's fields, shared by
// BinaryReader and IndexedTrace; p must hold maxFrameHeader bytes or run
// to the end of the trace.
func parseFrame(p []byte, ord int) (payloadLen, recCount uint64, n int, err error) {
	payloadLen, n1 := binary.Uvarint(p)
	if n1 <= 0 {
		return 0, 0, 0, fmt.Errorf("trace: block %d: bad frame: %w", ord, uvarintErr(p, n1))
	}
	if payloadLen > maxBlockPayload {
		return 0, 0, 0, fmt.Errorf("trace: block %d: payload length %d exceeds limit", ord, payloadLen)
	}
	recCount, n2 := binary.Uvarint(p[n1:])
	if n2 <= 0 {
		return 0, 0, 0, fmt.Errorf("trace: block %d: bad frame: %w", ord, uvarintErr(p[n1:], n2))
	}
	if recCount > payloadLen {
		return 0, 0, 0, fmt.Errorf("trace: block %d: record count %d exceeds payload %d", ord, recCount, payloadLen)
	}
	return payloadLen, recCount, n1 + n2, nil
}

// uvarintErr is the error binary.ReadUvarint would give reading the bytes
// of p where binary.Uvarint returned n <= 0.
func uvarintErr(p []byte, n int) error {
	switch {
	case n < 0 || len(p) >= binary.MaxVarintLen64:
		return errVarintOverflow
	case len(p) == 0:
		return io.EOF
	}
	return io.ErrUnexpectedEOF
}

// ErrBlockChecksum marks a binary block whose payload fails its CRC32. It
// is reported wrapped in a *BadLineError whose Line is the 1-based block
// ordinal.
var ErrBlockChecksum = errors.New("block checksum mismatch")

// opIndexes maps Op to its 2-bit tag encoding and back.
var opFromIndex = [4]Op{Load, Store, Modify, Misc}

func opIndex(o Op) byte {
	switch o {
	case Load:
		return 0
	case Store:
		return 1
	case Modify:
		return 2
	default:
		return 3
	}
}

const (
	tagHasSym    = 1 << 2
	tagLocal     = 1 << 3
	tagAggregate = 1 << 4
)

// BinaryWriter streams records to the block-framed binary format. Call
// Flush when done to emit the final partial block.
type BinaryWriter struct {
	bw        *bufio.Writer
	blockRecs int
	header    Header
	hasHdr    bool
	wrotePre  bool
	recsSoFar int

	strTab   []byte // encoded string-table entries for the block
	strCount int
	// strIdx maps every spelling the writer has seen to its index in the
	// string table of the block it was last used in. Entries outlive their
	// block (a stamp other than blockNo means "not in this table yet"), so
	// a spelling's key is allocated once per writer, not once per block.
	strIdx internTable[strRef]
	// sites remembers the strIdx entries of recent sites' spellings, so a
	// record whose site it holds is encoded without rendering or hashing
	// its names. It is emptied with strIdx, whose entries it points into.
	sites    *writerSites
	blockNo  uint32
	recBuf   []byte // encoded records for the block
	recCount int
	prevAddr uint64
	scratch  []byte // variable-expression rendering
	payload  []byte // assembled block payload

	// Block-index footer state: off tracks the file offset of the next
	// byte, idx collects per-block frame offsets and record counts, and
	// indexed/wroteIdx gate the footer block Flush appends.
	off      int64
	idx      BlockIndex
	indexed  bool
	wroteIdx bool
}

// NewBinaryWriter returns a BinaryWriter over w.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{
		bw:        bufio.NewWriterSize(w, 256*1024),
		blockRecs: DefaultBlockRecords,
		strIdx:    internTable[strRef]{seed: maphash.MakeSeed()},
		sites:     new(writerSites),
	}
}

// writerSiteBits sizes a BinaryWriter's site memo: 16,384 slots of 24
// bytes, 384 KiB per writer. On the mixed trace benchrun encodes (3.1M
// records, 195K new spellings) it missed 233,676 times where a map of
// every site missed 199,755, and a 4,096-slot memo 308,968.
const (
	writerSiteBits  = 14
	writerSiteSlots = 1 << writerSiteBits
)

// writerSites is a direct-mapped memo of sites' spellings. The key is the
// site pointer itself, which the collector sees, so no other site can
// take a site's address while a slot names it; records that each bring a
// site of their own only evict one another.
type writerSites [writerSiteSlots]siteSpellings

// slot returns s's slot. The multiply spreads sites, which lie 56 or 64
// bytes apart, over the product's top bits.
func (m *writerSites) slot(s *Site) *siteSpellings {
	h := uint64(uintptr(unsafe.Pointer(s))) * 0x9e3779b97f4a7c15
	return &m[h>>(64-writerSiteBits)]
}

// strRef is a spelling's string-table index in block number block.
type strRef struct {
	block uint32
	idx   uint64
}

// siteSpellings is one memo slot: it locates site's function and variable
// spellings in the writer's strIdx. fn is nil in an empty slot, v until a
// record with symbol information used the site.
type siteSpellings struct {
	site  *Site
	fn, v *internEntry[strRef]
}

// SetBlockRecords overrides the records-per-block flush threshold (tests
// and benchmarks; n < 1 is ignored).
func (wr *BinaryWriter) SetBlockRecords(n int) {
	if n >= 1 {
		wr.blockRecs = n
	}
}

// EnableIndex makes Flush append the block-index footer (see footer.go):
// per-block file offsets and record counts that let readers seek and shard
// without scanning. The footer travels as a record-free block, so readers
// that predate it skip it transparently.
func (wr *BinaryWriter) EnableIndex() { wr.indexed = true }

// WriteHeader records the START header; it must precede any record.
func (wr *BinaryWriter) WriteHeader(h Header) error {
	if wr.hasHdr {
		return fmt.Errorf("trace: header written twice")
	}
	if wr.wrotePre {
		return fmt.Errorf("trace: header after records")
	}
	wr.header = h
	wr.hasHdr = true
	return nil
}

// writePreamble emits magic, flags and PID; the header becomes immutable.
func (wr *BinaryWriter) writePreamble() error {
	if wr.wrotePre {
		return nil
	}
	wr.wrotePre = true
	if _, err := wr.bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	var flags byte
	if wr.hasHdr {
		flags |= 1
	}
	if err := wr.bw.WriteByte(flags); err != nil {
		return err
	}
	pid := binary.AppendVarint(wr.scratch[:0], int64(wr.header.PID))
	wr.off = int64(len(binaryMagic) + 1 + len(pid))
	_, err := wr.bw.Write(pid)
	return err
}

// spelling returns the strIdx entry of key, adding it on the writer's
// first sight of key: only then is the spelling allocated.
func (wr *BinaryWriter) spelling(key []byte) *internEntry[strRef] {
	if e := wr.strIdx.find(key); e != nil {
		return e
	}
	// A new spelling is in no block's table yet: its stamp is not blockNo.
	ref := strRef{block: wr.blockNo - 1}
	if e := wr.strIdx.insert(string(key), ref); e != nil {
		return e
	}
	// A full table (flushBlock keeps room for a block, so only a block
	// size raised mid-stream fills one) adds the spelling at each use.
	return &internEntry[strRef]{key: string(key), val: ref}
}

// index returns the block-local string-table index of e's spelling, adding
// it to the block's table on its first use in the block.
func (wr *BinaryWriter) index(e *internEntry[strRef]) uint64 {
	if e.val.block != wr.blockNo {
		e.val = strRef{wr.blockNo, uint64(wr.strCount)}
		wr.strCount++
		wr.strTab = binary.AppendUvarint(wr.strTab, uint64(len(e.key)))
		wr.strTab = append(wr.strTab, e.key...)
	}
	return e.val.idx
}

// Write appends one record, flushing a block when it is full.
func (wr *BinaryWriter) Write(r *Record) error {
	if err := wr.writePreamble(); err != nil {
		return err
	}
	tag := opIndex(r.Op)
	if r.HasSym {
		tag |= tagHasSym
		if r.Vis == Local {
			tag |= tagLocal
		}
		if r.Aggregate {
			tag |= tagAggregate
		}
	}
	b := append(wr.recBuf, tag)
	b = binary.AppendVarint(b, int64(r.Addr-wr.prevAddr))
	b = binary.AppendVarint(b, int64(r.Size))
	sp := wr.sites.slot(r.Site)
	if sp.site != r.Site || sp.fn == nil {
		wr.scratch = append(wr.scratch[:0], r.Site.Func()...)
		*sp = siteSpellings{site: r.Site, fn: wr.spelling(wr.scratch)}
	}
	b = binary.AppendUvarint(b, wr.index(sp.fn))
	if r.HasSym {
		if r.Vis == Local {
			b = binary.AppendVarint(b, int64(r.Site.Frame()))
			b = binary.AppendVarint(b, int64(r.Site.Thread()))
		}
		if sp.v == nil {
			wr.scratch = r.Site.Var().AppendText(wr.scratch[:0])
			sp.v = wr.spelling(wr.scratch)
		}
		b = binary.AppendUvarint(b, wr.index(sp.v))
	}
	wr.recBuf = b
	wr.prevAddr = r.Addr
	wr.recCount++
	wr.recsSoFar++
	if wr.recCount >= wr.blockRecs {
		return wr.flushBlock()
	}
	return nil
}

// flushBlock frames and writes the current block, then resets block state.
func (wr *BinaryWriter) flushBlock() error {
	if wr.recCount == 0 {
		return nil
	}
	p := binary.AppendUvarint(wr.payload[:0], uint64(wr.strCount))
	p = append(p, wr.strTab...)
	p = append(p, wr.recBuf...)
	wr.payload = p

	hdr := binary.AppendUvarint(wr.scratch[:0], uint64(len(p)))
	hdr = binary.AppendUvarint(hdr, uint64(wr.recCount))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(p))
	wr.scratch = hdr
	wr.idx.Offsets = append(wr.idx.Offsets, wr.off)
	wr.idx.Counts = append(wr.idx.Counts, int64(wr.recCount))
	wr.idx.Records += int64(wr.recCount)
	wr.off += int64(len(hdr) + len(p))
	if _, err := wr.bw.Write(hdr); err != nil {
		return err
	}
	if _, err := wr.bw.Write(p); err != nil {
		return err
	}
	wr.strTab = wr.strTab[:0]
	wr.strCount = 0
	wr.blockNo++
	if !wr.strIdx.room(2*wr.blockRecs) || wr.blockNo == 0 {
		// A table that filled up mid-block would stop taking new spellings,
		// and each use of an uninterned one would add a duplicate entry (a
		// block uses at most two per record); a wrapped block number would
		// make stale stamps current. Start afresh, with the sites that
		// point into the old table.
		wr.strIdx = internTable[strRef]{seed: wr.strIdx.seed}
		clear(wr.sites[:])
	}
	wr.recBuf = wr.recBuf[:0]
	wr.recCount = 0
	wr.prevAddr = 0
	return nil
}

// Flush writes the preamble (for empty traces), the final partial block,
// the block-index footer when EnableIndex was called, and any buffered
// output.
func (wr *BinaryWriter) Flush() error {
	if err := wr.writePreamble(); err != nil {
		return err
	}
	if err := wr.flushBlock(); err != nil {
		return err
	}
	if wr.indexed && !wr.wroteIdx {
		wr.wroteIdx = true
		if err := wr.writeFooterBlock(); err != nil {
			return err
		}
	}
	return wr.bw.Flush()
}

// writeFooterBlock frames the encoded index as a record-free block whose
// single string-table entry is the footer bytes. Old readers CRC-check and
// skip it; the trailer magic at the end of the file lets new readers find
// it without a scan.
func (wr *BinaryWriter) writeFooterBlock() error {
	body := appendFooter(nil, &wr.idx)
	p := binary.AppendUvarint(wr.payload[:0], 1)
	p = binary.AppendUvarint(p, uint64(len(body)))
	p = append(p, body...)
	wr.payload = p
	hdr := binary.AppendUvarint(wr.scratch[:0], uint64(len(p)))
	hdr = binary.AppendUvarint(hdr, 0)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(p))
	wr.scratch = hdr
	wr.off += int64(len(hdr) + len(p))
	if _, err := wr.bw.Write(hdr); err != nil {
		return err
	}
	_, err := wr.bw.Write(p)
	return err
}

// Records returns the number of records successfully written so far.
func (wr *BinaryWriter) Records() int { return wr.recsSoFar }

// BinaryReader streams records from the block-framed binary format. In
// lenient mode, blocks with checksum or encoding damage are skipped whole,
// each charged as one unit against the MaxBadLines budget and reported
// through OnError with the 1-based block ordinal as the line number.
type BinaryReader struct {
	br     *bufio.Reader
	opts   DecodeOptions
	header Header
	gotPre bool
	hasHdr bool
	block  int // 1-based ordinal of the block last read
	bad    int
	err    error
	auxErr error // first damage seen in a record-free auxiliary block

	st     *decodeState // from the open to the stream's end; see decodeState
	crcBuf [4]byte      // a field, not a local: io.ReadFull would move a local to the heap
}

// NewBinaryReader returns a strict BinaryReader over r.
func NewBinaryReader(r io.Reader) *BinaryReader {
	return NewBinaryReaderOptions(r, DecodeOptions{})
}

// NewBinaryReaderOptions returns a BinaryReader with explicit options.
func NewBinaryReaderOptions(r io.Reader, opts DecodeOptions) *BinaryReader {
	return newBinaryReader(r, opts, getDecodeState(0))
}

// newBinaryReader returns a BinaryReader over r that decodes through st.
func newBinaryReader(r io.Reader, opts DecodeOptions, st *decodeState) *BinaryReader {
	return &BinaryReader{br: st.reader(r, maxFrameHeader, 256<<10), opts: opts, st: st}
}

// end makes err the stream's sticky result and gives the decode state
// back. The input is not read again.
func (rd *BinaryReader) end(err error) error {
	rd.err = err
	rd.st.release()
	rd.st = nil
	rd.br = nil
	return err
}

// ensurePre consumes and checks the preamble. A bad preamble ends the
// stream.
func (rd *BinaryReader) ensurePre() error {
	if rd.gotPre {
		if rd.err != nil && rd.err != io.EOF {
			return rd.err
		}
		return nil
	}
	rd.gotPre = true
	var magic [BinaryMagicLen]byte
	if _, err := io.ReadFull(rd.br, magic[:]); err != nil {
		return rd.end(fmt.Errorf("trace: short binary preamble: %w", err))
	}
	if magic != binaryMagic {
		return rd.end(fmt.Errorf("trace: bad binary magic %q", magic[:]))
	}
	flags, err := rd.br.ReadByte()
	if err != nil {
		return rd.end(fmt.Errorf("trace: short binary preamble: %w", err))
	}
	pid, err := binary.ReadVarint(rd.br)
	if err != nil {
		return rd.end(fmt.Errorf("trace: bad binary preamble pid: %w", err))
	}
	rd.hasHdr = flags&1 != 0
	if rd.hasHdr {
		rd.header = Header{PID: int(pid)}
	}
	return nil
}

// Header returns the trace header (zero when the source had none).
func (rd *BinaryReader) Header() (Header, error) {
	if err := rd.ensurePre(); err != nil {
		return rd.header, err
	}
	return rd.header, nil
}

// HasHeader reports whether the source trace carried a START header.
func (rd *BinaryReader) HasHeader() bool { return rd.hasHdr }

// BadLines returns the number of damaged blocks skipped in lenient mode.
func (rd *BinaryReader) BadLines() int { return rd.bad }

// AuxDamage returns the first damage found in a record-free auxiliary
// block (e.g. a torn or checksum-failed block-index footer), nil when
// none was seen. Auxiliary blocks carry no records, so their damage
// loses no data and is reported out of band rather than through the
// bad-line machinery — even strict reads succeed past it.
func (rd *BinaryReader) AuxDamage() error { return rd.auxErr }

// noteAux records auxiliary-block damage, keeping the first error.
func (rd *BinaryReader) noteAux(err error) {
	if rd.auxErr == nil {
		rd.auxErr = err
	}
}

// eofish reports whether err marks the end of the stream (clean or short).
func eofish(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// loadBlock reads and decodes the next block into rd.st.recs. io.EOF
// means a clean end of stream.
func (rd *BinaryReader) loadBlock() error {
	for {
		hdr, perr := rd.br.Peek(maxFrameHeader)
		if len(hdr) == 0 && perr == io.EOF {
			return io.EOF
		}
		payloadLen, recCount, n, err := parseFrame(hdr, rd.block+1)
		if err != nil {
			if perr != nil && perr != io.EOF && eofish(err) {
				// The header was cut short by a read error, not the end.
				err = fmt.Errorf("trace: block %d: bad frame: %w", rd.block+1, perr)
			}
			return err
		}
		rd.br.Discard(n) // cannot fail: Peek returned the n bytes
		rd.block++
		crcBuf := rd.crcBuf[:]
		if _, err := io.ReadFull(rd.br, crcBuf); err != nil {
			if recCount == 0 && eofish(err) {
				// A record-free block torn off at the end of the stream
				// (ReadFull only comes up short there): no records lost.
				rd.noteAux(fmt.Errorf("trace: block %d: truncated record-free block: %w", rd.block, err))
				return io.EOF
			}
			return fmt.Errorf("trace: block %d: bad frame: %w", rd.block, err)
		}
		// Grow geometrically: block payloads creep upward through a trace,
		// and an exact-fit buffer would be replaced at nearly every block.
		payload := slices.Grow(rd.st.payload[:0], int(payloadLen))[:payloadLen]
		rd.st.payload = payload
		if _, err := io.ReadFull(rd.br, payload); err != nil {
			if recCount == 0 && eofish(err) {
				rd.noteAux(fmt.Errorf("trace: block %d: truncated record-free block: %w", rd.block, err))
				return io.EOF
			}
			return fmt.Errorf("trace: block %d: truncated payload: %w", rd.block, err)
		}
		// Framing is intact from here on, so damage is skippable: the next
		// block starts right after the payload we already consumed.
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(crcBuf) {
			if recCount == 0 {
				// Record-free blocks carry auxiliary payloads (the
				// block-index footer); damage there loses no records.
				rd.noteAux(fmt.Errorf("trace: block %d: record-free block: %w", rd.block, ErrBlockChecksum))
				continue
			}
			if err := rd.opts.skip(&BadLineError{Line: rd.block, Err: ErrBlockChecksum}, &rd.bad); err != nil {
				return err
			}
			continue
		}
		if recCount == 0 {
			// CRC-valid auxiliary payload; nothing to decode.
			continue
		}
		if derr := rd.decodeBlock(payload, int(recCount)); derr != nil {
			if err := rd.opts.skip(&BadLineError{Line: rd.block, Err: derr}, &rd.bad); err != nil {
				return err
			}
			continue
		}
		return nil
	}
}

// decodeBlock decodes a CRC-valid payload into rd.st.recs.
func (rd *BinaryReader) decodeBlock(p []byte, recCount int) error {
	recs, err := rd.st.dec.decode(p, recCount, rd.st.recs[:0])
	rd.st.recs = recs
	return err
}

// blockDecoder decodes block payloads: inside a decodeState, the
// block-decoding half of BinaryReader and of IndexedTrace's sources and
// DecodeBytes workers.
type blockDecoder struct {
	intern *Interner
	slots  []strSlot // the current block's string table
}

// strSlot is one entry of a block's string table. Records name entries by
// index, as a function name, a variable spelling, or both; the site a
// record takes is resolved through the Interner by the first record of the
// block that names the function, variable, frame and thread, and reused by
// the next ones, so an entry costs one lookup per block however many
// records name it with one function, frame and thread.
type strSlot struct {
	raw []byte // the entry's bytes, aliasing the payload
	// fnSite is the site of records naming the entry as their function and
	// no variable.
	fnSite *Site
	// varSite is the site of the last record naming the entry as its
	// variable, whose function entry was varFn; the site holds that
	// record's frame and thread.
	varSite *Site
	varFn   uint64
}

// minRecordBytes is the smallest encoded record: tag, address delta, size
// and function index, one byte each.
const minRecordBytes = 4

// decode appends the payload's records to recs and returns the extended
// slice. The payload must already have passed its CRC check; the records
// keep no reference to it.
func (d *blockDecoder) decode(p []byte, recCount int, recs []Record) ([]Record, error) {
	strCount, n := binary.Uvarint(p)
	if n <= 0 || strCount > uint64(len(p)) {
		return recs, fmt.Errorf("bad string table header")
	}
	p = p[n:]
	d.slots = d.slots[:0]
	for i := uint64(0); i < strCount; i++ {
		slen, n := binary.Uvarint(p)
		if n <= 0 || slen > uint64(len(p)-n) {
			return recs, fmt.Errorf("bad string table entry %d", i)
		}
		d.slots = append(d.slots, strSlot{raw: p[n : n+int(slen)]})
		p = p[n+int(slen):]
	}
	// Size the output once. The frame's record count is bounded by what the
	// rest of the payload can hold, so a damaged count cannot force a huge
	// allocation.
	recs = slices.Grow(recs, min(recCount, len(p)/minRecordBytes))
	var prevAddr uint64
	for i := 0; i < recCount; i++ {
		if len(p) == 0 {
			return recs, fmt.Errorf("truncated record %d", i)
		}
		tag := p[0]
		p = p[1:]
		var r Record
		r.Op = opFromIndex[tag&3]
		delta, n := binary.Varint(p)
		if n <= 0 {
			return recs, fmt.Errorf("bad address in record %d", i)
		}
		p = p[n:]
		r.Addr = prevAddr + uint64(delta)
		prevAddr = r.Addr
		size, n := binary.Varint(p)
		if n <= 0 || size < 0 || size > MaxSize {
			return recs, fmt.Errorf("bad size in record %d", i)
		}
		p = p[n:]
		r.Size = int32(size)
		fidx, n := binary.Uvarint(p)
		if n <= 0 || fidx >= uint64(len(d.slots)) {
			return recs, fmt.Errorf("bad function index in record %d", i)
		}
		p = p[n:]
		f := &d.slots[fidx]
		if tag&tagHasSym != 0 {
			r.HasSym = true
			r.Vis = Global
			r.Aggregate = tag&tagAggregate != 0
			var frame, thread int64
			if tag&tagLocal != 0 {
				r.Vis = Local
				frame, n = binary.Varint(p)
				if n <= 0 || frame != int64(int32(frame)) {
					return recs, fmt.Errorf("bad frame in record %d", i)
				}
				p = p[n:]
				thread, n = binary.Varint(p)
				if n <= 0 || thread != int64(int32(thread)) {
					return recs, fmt.Errorf("bad thread in record %d", i)
				}
				p = p[n:]
			}
			vidx, n := binary.Uvarint(p)
			if n <= 0 || vidx >= uint64(len(d.slots)) {
				return recs, fmt.Errorf("bad variable index in record %d", i)
			}
			p = p[n:]
			v := &d.slots[vidx]
			if s := v.varSite; s == nil || v.varFn != fidx || s.frame != int32(frame) || s.thread != int32(thread) {
				site, err := d.intern.site(f.raw, v.raw, int32(frame), int32(thread))
				if err != nil {
					return recs, fmt.Errorf("bad variable in record %d: %v", i, err)
				}
				v.varSite, v.varFn = site, fidx
			}
			r.Site = v.varSite
		} else if tag&(tagLocal|tagAggregate) != 0 {
			return recs, fmt.Errorf("bad tag %#x in record %d", tag, i)
		} else {
			if f.fnSite == nil {
				// A function-only site cannot fail: only a variable parses.
				f.fnSite, _ = d.intern.site(f.raw, nil, 0, 0)
			}
			r.Site = f.fnSite
		}
		recs = append(recs, r)
	}
	if len(p) != 0 {
		return recs, fmt.Errorf("%d trailing bytes after %d records", len(p), recCount)
	}
	return recs, nil
}

// NextBatch returns the records of the next decoded block (see
// RecordSource): batches are the decoded blocks themselves, handed out
// with no copying. io.EOF signals a clean end of stream.
func (rd *BinaryReader) NextBatch() ([]Record, error) {
	if rd.err != nil {
		return nil, rd.err
	}
	if err := rd.ensurePre(); err != nil {
		return nil, err
	}
	if err := rd.loadBlock(); err != nil {
		return nil, rd.end(err)
	}
	return rd.st.recs, nil
}

// ReadAll reads the remaining records into a slice.
func (rd *BinaryReader) ReadAll() ([]Record, error) { return ReadSource(rd) }
