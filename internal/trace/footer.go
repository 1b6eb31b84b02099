// The optional .glb block-index footer. An indexed writer appends one
// final record-free block whose single string-table entry holds the
// encoded index, so pre-footer readers skip it transparently (they CRC and
// discard record-free blocks) while new readers can locate every data
// block without scanning the file:
//
//	footer  := idxMagic["GLIX1"] nblocks:uvarint
//	           { offsetDelta:uvarint count:uvarint }*   (per data block)
//	           records:uvarint crc32:u32le
//	trailer := footerLen:u32le endMagic["GLIXEND\n"]
//
// The footer bytes (footer ++ trailer) are the last bytes of the file:
// a reader stats the file, reads the fixed-size trailer, seeks back
// footerLen bytes and verifies idxMagic plus the CRC over footer[:len-4].
// Offsets are absolute file positions of each data block's frame, encoded
// as deltas from the previous offset; counts are records per block.
package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// BlockIndex locates every data block of a binary trace: parallel slices
// of absolute frame offsets and per-block record counts, plus the total.
type BlockIndex struct {
	Offsets []int64
	Counts  []int64
	Records int64
}

// NumBlocks returns how many data blocks the index covers.
func (ix *BlockIndex) NumBlocks() int { return len(ix.Offsets) }

var (
	footerMagic  = []byte("GLIX1")
	trailerMagic = []byte("GLIXEND\n")
)

// trailerLen is the fixed size of the end-of-file locator: footerLen u32le
// plus the trailer magic.
const trailerLen = 4 + 8

// maxFooterBytes bounds a declared footer length so a corrupt trailer
// cannot drive a giant allocation or a bogus seek.
const maxFooterBytes = 1 << 30

// appendFooter encodes ix (footer ++ trailer) onto dst.
func appendFooter(dst []byte, ix *BlockIndex) []byte {
	start := len(dst)
	dst = append(dst, footerMagic...)
	dst = binary.AppendUvarint(dst, uint64(len(ix.Offsets)))
	prev := int64(0)
	for i, off := range ix.Offsets {
		dst = binary.AppendUvarint(dst, uint64(off-prev))
		dst = binary.AppendUvarint(dst, uint64(ix.Counts[i]))
		prev = off
	}
	dst = binary.AppendUvarint(dst, uint64(ix.Records))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(dst)-start))
	dst = append(dst, trailerMagic...)
	return dst
}

// parseFooter looks for a footer at the end of data. It returns (nil, nil)
// when no trailer magic is present — an unindexed trace, not an error —
// and an error when a trailer is present but the footer it points at is
// damaged.
func parseFooter(data []byte) (*BlockIndex, error) {
	if len(data) < trailerLen {
		return nil, nil
	}
	tail := data[len(data)-trailerLen:]
	if string(tail[4:]) != string(trailerMagic) {
		return nil, nil
	}
	footLen := int64(binary.LittleEndian.Uint32(tail[:4]))
	if footLen < int64(len(footerMagic))+4 || footLen > maxFooterBytes ||
		footLen > int64(len(data)-trailerLen) {
		return nil, fmt.Errorf("trace: block-index footer: bad length %d", footLen)
	}
	foot := data[int64(len(data)-trailerLen)-footLen : len(data)-trailerLen]
	if string(foot[:len(footerMagic)]) != string(footerMagic) {
		return nil, fmt.Errorf("trace: block-index footer: bad magic")
	}
	body, crcBytes := foot[:len(foot)-4], foot[len(foot)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(crcBytes) {
		return nil, fmt.Errorf("trace: block-index footer: checksum mismatch")
	}
	p := body[len(footerMagic):]
	nblocks, n := binary.Uvarint(p)
	if n <= 0 || nblocks > uint64(len(data)) {
		return nil, fmt.Errorf("trace: block-index footer: bad block count")
	}
	p = p[n:]
	ix := &BlockIndex{
		Offsets: make([]int64, 0, nblocks),
		Counts:  make([]int64, 0, nblocks),
	}
	// Every record takes at least minRecordBytes of some payload, which
	// bounds what the counts may claim before any block is read.
	maxRecords := uint64(len(data) / minRecordBytes)
	var claimed uint64
	prev := int64(0)
	for i := uint64(0); i < nblocks; i++ {
		delta, n := binary.Uvarint(p)
		if n <= 0 {
			return nil, fmt.Errorf("trace: block-index footer: bad offset in entry %d", i)
		}
		p = p[n:]
		count, n := binary.Uvarint(p)
		if n <= 0 || count > maxRecords-claimed {
			return nil, fmt.Errorf("trace: block-index footer: bad count in entry %d", i)
		}
		claimed += count
		p = p[n:]
		off := prev + int64(delta)
		if off < 0 || off >= int64(len(data)) {
			return nil, fmt.Errorf("trace: block-index footer: offset %d out of range in entry %d", off, i)
		}
		ix.Offsets = append(ix.Offsets, off)
		ix.Counts = append(ix.Counts, int64(count))
		prev = off
	}
	total, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, fmt.Errorf("trace: block-index footer: bad record total")
	}
	if p = p[n:]; len(p) != 0 {
		return nil, fmt.Errorf("trace: block-index footer: %d trailing bytes", len(p))
	}
	ix.Records = int64(total)
	var sum int64
	for _, c := range ix.Counts {
		sum += c
	}
	if sum != ix.Records {
		return nil, fmt.Errorf("trace: block-index footer: per-block counts sum to %d, total says %d", sum, ix.Records)
	}
	return ix, nil
}
