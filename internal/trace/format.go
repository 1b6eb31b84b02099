// Trace container formats. The package supports two encodings of the same
// record stream: the Gleipnir line-oriented text format (io.go) and a
// block-framed binary format (binary.go), each with one decoder. Format
// sniffing (OpenReader) plus the RecordReader/RecordWriter interfaces let
// every tool accept either transparently.
package trace

import (
	"io"
)

// FileFormat identifies a trace container encoding.
type FileFormat int

// Trace container formats.
const (
	FormatUnknown FileFormat = iota
	// FormatText is the Gleipnir line format: "START PID <n>" plus one
	// whitespace-separated record per line.
	FormatText
	// FormatBinary is the block-framed binary format (.glb): a magic-tagged
	// preamble followed by independently decodable blocks, each with its own
	// string table, varint+delta record encoding and CRC32 checksum.
	FormatBinary
)

// String names the format as spelled by the -format CLI flags.
func (f FileFormat) String() string {
	switch f {
	case FormatText:
		return "text"
	case FormatBinary:
		return "binary"
	}
	return "unknown"
}

// binaryMagic opens every binary trace. The 0x89 byte keeps it out of the
// text grammar (and of ASCII transports), "GLB1" names format+version, and
// the newline catches line-ending translation, PNG-style.
var binaryMagic = [6]byte{0x89, 'G', 'L', 'B', '1', '\n'}

// BinaryMagicLen is how many leading bytes DetectFormat needs to identify a
// binary trace.
const BinaryMagicLen = len(binaryMagic)

// DetectFormat sniffs the container format from the first bytes of a trace
// (at least BinaryMagicLen bytes for a reliable answer; shorter prefixes
// sniff as text, which fails loudly downstream if wrong). Anything not
// starting with the binary magic is treated as text, matching the
// historical behaviour for arbitrary line input.
func DetectFormat(prefix []byte) FileFormat {
	if len(prefix) >= BinaryMagicLen && string(prefix[:BinaryMagicLen]) == string(binaryMagic[:]) {
		return FormatBinary
	}
	return FormatText
}

// RecordReader is the decoding half shared by the text Reader and the
// BinaryReader: a RecordSource that can also materialize what is left.
type RecordReader interface {
	RecordSource
	// ReadAll reads the remaining records (ReadSource).
	ReadAll() ([]Record, error)
}

// RecordWriter is the encoding half shared by the text Writer and the
// BinaryWriter.
type RecordWriter interface {
	// WriteHeader writes the trace header; it must precede any record.
	WriteHeader(h Header) error
	// Write appends one record.
	Write(r *Record) error
	// Flush writes out any buffered data; it must be called when done.
	Flush() error
	// Records returns the number of records successfully written so far.
	Records() int
}

// OpenReader sniffs the format of r and returns a decoder for it plus the
// detected format. Sniffing never consumes input, so a text stream that
// merely resembles the magic is impossible (the magic byte 0x89 cannot open
// a valid text trace). The decoder takes a decode state, whose read buffer
// wraps r unless r is already buffered; a failed open gives it back.
func OpenReader(r io.Reader, opts DecodeOptions) (RecordReader, FileFormat, error) {
	st := getDecodeState(0)
	br := st.reader(r, BinaryMagicLen, textReadBuffer)
	// Peek only errors when fewer than BinaryMagicLen bytes are available
	// (EOF, or a short read from a faltering underlying reader). A prefix
	// that short cannot be binary — and the shortest valid text trace
	// content fits in fewer bytes than the magic — so any short read
	// sniffs as text. bufio clears the peeked error, so a persistent I/O
	// failure resurfaces with line context on the first read; only an
	// empty non-EOF failure is reported here, where text decoding could
	// not start either.
	prefix, err := br.Peek(BinaryMagicLen)
	if err != nil && err != io.EOF && len(prefix) == 0 {
		st.release()
		return nil, FormatUnknown, err
	}
	if DetectFormat(prefix) == FormatBinary {
		return newBinaryReader(br, opts, st), FormatBinary, nil
	}
	return newReader(br, opts, st), FormatText, nil
}

// NewWriterFormat returns an encoder for the requested format
// (FormatUnknown selects text, the historical default).
func NewWriterFormat(w io.Writer, f FileFormat) RecordWriter {
	if f == FormatBinary {
		return NewBinaryWriter(w)
	}
	return NewWriter(w)
}
