// Corruption classes for the binary (.glb) container. The block-index
// footer is a pure suffix optimization: every footer class damages only
// the footer or its end-of-file trailer and loses zero records, so
// indexed open must degrade to a scan-built index, readers must keep
// decoding every record, and glcheck must surface the damage as a warning
// rather than an error. GLBFlipPayloadBit and GLBForgeVarint are the
// classes that damage a data block, and GLBForgeIndexGap forges a footer
// that passes its checksum but leaves a data block out.
package faultinject

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"

	"tracedst/internal/trace"
)

// glbTrailerLen is the fixed size of the .glb footer trailer:
// footerLen:u32le followed by the "GLIXEND\n" end magic.
const glbTrailerLen = 4 + 8

var (
	glbFooterMagic  = []byte("GLIX1")
	glbTrailerMagic = []byte("GLIXEND\n")
)

// hasGLBTrailer reports whether data ends with an intact footer trailer.
func hasGLBTrailer(data []byte) bool {
	return len(data) > glbTrailerLen && bytes.HasSuffix(data, glbTrailerMagic)
}

// GLBTruncatedTrailer cuts into the trailer's end magic, so readers no
// longer recognize that the trace carries a footer at all. The footer
// block it belonged to is left torn at the end of the file.
func GLBTruncatedTrailer(data []byte) []byte {
	if !hasGLBTrailer(data) {
		return data
	}
	return data[:len(data)-3]
}

// GLBTornFooter rips off the trailer and roughly half the footer body —
// the shape left behind by a writer killed mid-footer-append. The torn
// remainder still sits inside the final record-free block's payload.
func GLBTornFooter(data []byte) []byte {
	if !hasGLBTrailer(data) {
		return data
	}
	footLen := int(binary.LittleEndian.Uint32(data[len(data)-glbTrailerLen:]))
	cut := glbTrailerLen + footLen/2
	if cut >= len(data) {
		cut = glbTrailerLen
	}
	return data[:len(data)-cut]
}

// GLBBadFooterCRC flips one bit in the footer body just before the
// trailer, leaving the trailer (and thus footer discovery) intact. Both
// the footer's own CRC and the CRC of the record-free block carrying it
// fail afterwards.
func GLBBadFooterCRC(data []byte) []byte {
	if !hasGLBTrailer(data) {
		return data
	}
	out := append([]byte(nil), data...)
	out[len(out)-glbTrailerLen-2] ^= 0x01
	return out
}

// GLBCorruption is one named .glb footer corruption class. All classes
// are lossless by construction: they touch only the footer/trailer
// suffix, never a data block.
type GLBCorruption struct {
	// Name identifies the class.
	Name string
	// Apply corrupts an indexed .glb trace deterministically. Traces
	// without a footer trailer pass through unchanged.
	Apply func(data []byte) []byte
}

// GLBFooterClasses returns the footer corruption classes driven by the
// robustness harness.
func GLBFooterClasses() []GLBCorruption {
	return []GLBCorruption{
		{Name: "torn-footer", Apply: GLBTornFooter},
		{Name: "bad-footer-crc", Apply: GLBBadFooterCRC},
		{Name: "truncated-trailer", Apply: GLBTruncatedTrailer},
	}
}

// GLBFlipPayloadBit flips one bit in the middle of the first data block's
// payload and leaves the block's stored CRC as it was — media damage that
// only reading the payload reveals. The block then fails its checksum, so
// decoders drop it (lenient) or fail on it (strict). Data that is not a
// well-framed .glb with a data block passes through unchanged.
func GLBFlipPayloadBit(data []byte) []byte {
	blocks := glbDataBlocks(data, 1)
	if len(blocks) == 0 {
		return data
	}
	b := blocks[0]
	out := append([]byte(nil), data...)
	out[b.start+(b.end-b.start)/2] ^= 0x10
	return out
}

// GLBForgeVarint replaces the first signed-varint encoding of from inside
// a data block's payload with the encoding of to, and re-stamps that
// block's CRC: the block passes its checksum but carries a value no
// writer emits, such as a size or thread id past 32 bits. The two
// encodings must be the same length. Data without such a block passes
// through unchanged.
func GLBForgeVarint(data []byte, from, to int64) []byte {
	old, repl := binary.AppendVarint(nil, from), binary.AppendVarint(nil, to)
	if len(old) != len(repl) {
		panic("faultinject: GLBForgeVarint needs encodings of equal length")
	}
	for _, b := range glbDataBlocks(data, -1) {
		i := bytes.Index(data[b.start:b.end], old)
		if i < 0 {
			continue
		}
		out := append([]byte(nil), data...)
		copy(out[b.start+i:], repl)
		binary.LittleEndian.PutUint32(out[b.start-4:], crc32.ChecksumIEEE(out[b.start:b.end]))
		return out
	}
	return data
}

// GLBForgeIndexGap re-stamps the block-index footer of an indexed .glb
// without the entry of data block i (0-based), leaving every block in
// place: every CRC holds, but the index skips a block the file still
// holds, so a reader that trusted it would drop that block's records.
// Data without a footer trailer or without block i passes through
// unchanged.
func GLBForgeIndexGap(data []byte, i int) []byte {
	blocks := glbDataBlocks(data, -1)
	if !hasGLBTrailer(data) || i < 0 || i >= len(blocks) {
		return data
	}
	last := blocks[len(blocks)-1]
	blocks = append(blocks[:i:i], blocks[i+1:]...)
	body := append([]byte(nil), glbFooterMagic...)
	body = binary.AppendUvarint(body, uint64(len(blocks)))
	prev, total := 0, uint64(0)
	for _, b := range blocks {
		body = binary.AppendUvarint(body, uint64(b.frame-prev))
		body = binary.AppendUvarint(body, b.recs)
		prev, total = b.frame, total+b.recs
	}
	body = binary.AppendUvarint(body, total)
	body = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	body = binary.LittleEndian.AppendUint32(body, uint32(len(body)))
	body = append(body, glbTrailerMagic...)
	// The footer travels as a record-free block of one string-table entry.
	payload := binary.AppendUvarint([]byte{1}, uint64(len(body)))
	payload = append(payload, body...)
	out := append([]byte(nil), data[:last.end]...)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = binary.AppendUvarint(out, 0)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// glbBlock is one framed .glb data block: the file offset of its frame,
// its payload span (its CRC is the four bytes before start) and its
// record count.
type glbBlock struct {
	frame, start, end int
	recs              uint64
}

// glbDataBlocks walks the frames of a .glb and returns up to n of its
// data blocks (n < 0: all), in file order, stopping at the first frame
// that does not parse.
func glbDataBlocks(data []byte, n int) []glbBlock {
	if trace.DetectFormat(data) != trace.FormatBinary || len(data) < trace.BinaryMagicLen+1 {
		return nil
	}
	p := data[trace.BinaryMagicLen+1:] // magic, flags
	_, k := binary.Varint(p)           // header PID
	if k <= 0 {
		return nil
	}
	var blocks []glbBlock
	p = p[k:]
	for len(blocks) != n {
		payloadLen, n1 := binary.Uvarint(p)
		if n1 <= 0 {
			break
		}
		recCount, n2 := binary.Uvarint(p[n1:])
		start := n1 + n2 + 4 // frame header, then the CRC
		if n2 <= 0 || payloadLen == 0 || uint64(len(p)-start) < payloadLen {
			break
		}
		if recCount > 0 {
			frame := len(data) - len(p)
			blocks = append(blocks, glbBlock{frame, frame + start, frame + start + int(payloadLen), recCount})
		}
		p = p[start+int(payloadLen):]
	}
	return blocks
}
