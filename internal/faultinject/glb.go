// Corruption classes for the binary (.glb) container. The block-index
// footer is a pure suffix optimization: every footer class damages only
// the footer or its end-of-file trailer and loses zero records, so
// indexed open must degrade to a scan-built index, readers must keep
// decoding every record, and glcheck must surface the damage as a warning
// rather than an error. GLBFlipPayloadBit is the one class that damages a
// data block.
package faultinject

import (
	"bytes"
	"encoding/binary"

	"tracedst/internal/trace"
)

// glbTrailerLen is the fixed size of the .glb footer trailer:
// footerLen:u32le followed by the "GLIXEND\n" end magic.
const glbTrailerLen = 4 + 8

var glbTrailerMagic = []byte("GLIXEND\n")

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
	if trace.DetectFormat(data) != trace.FormatBinary || len(data) < trace.BinaryMagicLen+1 {
		return data
	}
	p := data[trace.BinaryMagicLen+1:] // magic, flags
	_, n := binary.Varint(p)           // header PID
	if n <= 0 {
		return data
	}
	p = p[n:]
	for {
		payloadLen, n1 := binary.Uvarint(p)
		if n1 <= 0 {
			return data
		}
		recCount, n2 := binary.Uvarint(p[n1:])
		start := n1 + n2 + 4 // frame header, then the CRC
		if n2 <= 0 || payloadLen == 0 || uint64(len(p)-start) < payloadLen {
			return data
		}
		if recCount > 0 {
			out := append([]byte(nil), data...)
			out[len(data)-len(p)+start+int(payloadLen)/2] ^= 0x10
			return out
		}
		p = p[start+int(payloadLen):]
	}
}
