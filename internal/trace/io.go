package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
)

// oversizePrefixLen is how many bytes of an over-long line are retained in
// BadLineError.Text so diagnostics can show what was skipped.
const oversizePrefixLen = 128

// Reader streams records from a Gleipnir trace file. Its tolerance for
// malformed input is set by DecodeOptions; see NewReaderOptions. It parses
// through a decode state, as the binary decoders do: the state's intern
// tables resolve function names and access expressions, and its record
// buffer holds NextBatch's batches.
type Reader struct {
	br         *bufio.Reader
	opts       DecodeOptions
	header     Header
	gotHdr     bool
	hasHdr     bool // input actually began with a START line
	buf        []byte
	pending    []byte // non-header first line peeked while looking for START
	hasPending bool
	st         *decodeState // from the first record to the stream's end; see decodeState
	line       int
	bad        int
	err        error
}

// NewReader returns a strict Reader over r with default limits. The header,
// if present, is consumed lazily on the first Read/Header call.
func NewReader(r io.Reader) *Reader { return NewReaderOptions(r, DecodeOptions{}) }

// NewReaderOptions returns a Reader with explicit decode options.
func NewReaderOptions(r io.Reader, opts DecodeOptions) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 64*1024), opts: opts}
}

// Header returns the trace header. If the stream has no START line the
// zero Header is returned and the first data line is preserved for Read.
func (rd *Reader) Header() (Header, error) {
	if err := rd.ensureHeader(); err != nil && err != io.EOF {
		return rd.header, err
	}
	return rd.header, nil
}

// HasHeader reports whether the input actually contained a START line. It
// is meaningful once Header (or the first Read) has been called.
func (rd *Reader) HasHeader() bool { return rd.hasHdr }

// Line returns the number of input lines consumed so far.
func (rd *Reader) Line() int { return rd.line }

// BadLines returns the number of malformed lines skipped in lenient mode.
func (rd *Reader) BadLines() int { return rd.bad }

// readLine returns the next input line without its terminator, counting it
// in rd.line. The returned slice aliases the Reader's scratch buffer and is
// valid only until the next readLine call. It returns io.EOF at end of
// input, a *BadLineError for a line over the length limit (whose bytes are
// fully consumed, so the stream remains usable, and whose Text carries the
// first oversizePrefixLen bytes), or a line-annotated I/O error.
func (rd *Reader) readLine() ([]byte, error) {
	max := rd.opts.maxLine()
	buf := rd.buf[:0]
	overflow := false
	for {
		frag, err := rd.br.ReadSlice('\n')
		if len(frag) > 0 {
			switch {
			case overflow:
				// Keep only the diagnostic prefix of an over-long line.
				if len(buf) < oversizePrefixLen {
					buf = append(buf, frag...)
				}
			case len(buf)+len(frag) > max+1: // +1 for the newline itself
				overflow = true
				buf = append(buf, frag...)
			default:
				buf = append(buf, frag...)
			}
			if overflow && len(buf) > oversizePrefixLen {
				buf = buf[:oversizePrefixLen]
			}
		}
		rd.buf = buf[:0]
		switch err {
		case nil:
			rd.line++
			if overflow {
				return nil, rd.oversizeErr(buf)
			}
			return bytes.TrimSuffix(buf, []byte("\n")), nil
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			if len(buf) == 0 && !overflow {
				return nil, io.EOF
			}
			// Final line without a trailing newline.
			rd.line++
			if overflow {
				return nil, rd.oversizeErr(buf)
			}
			return buf, nil
		default:
			return nil, fmt.Errorf("line %d: %w", rd.line+1, err)
		}
	}
}

// oversizeErr builds the BadLineError for an over-long line, carrying the
// retained diagnostic prefix (sans any trailing newline) in Text.
func (rd *Reader) oversizeErr(prefix []byte) *BadLineError {
	prefix = bytes.TrimSuffix(prefix, []byte("\n"))
	return &BadLineError{Line: rd.line, Text: string(prefix), Err: ErrLineTooLong}
}

// ensureHeader consumes the optional START line. A malformed header or an
// unreadable first line latches rd.err so later Reads fail loudly instead
// of silently treating the trace as headerless.
func (rd *Reader) ensureHeader() error {
	if rd.gotHdr {
		if rd.err != nil && rd.err != io.EOF {
			return rd.err
		}
		return nil
	}
	rd.gotHdr = true
	for {
		text, err := rd.readLine()
		if err == io.EOF {
			return io.EOF
		}
		if err != nil {
			if ble, ok := err.(*BadLineError); ok {
				if err = rd.opts.skip(ble, &rd.bad); err == nil {
					continue
				}
			}
			rd.err = err
			return rd.err
		}
		text = bytes.TrimSpace(text)
		if len(text) == 0 {
			continue
		}
		if bytes.HasPrefix(text, []byte("START")) {
			h, herr := ParseHeader(string(text))
			if herr != nil {
				ble := &BadLineError{Line: rd.line, Text: string(text), Err: herr}
				if rd.err = rd.opts.skip(ble, &rd.bad); rd.err != nil {
					return rd.err
				}
				// Lenient: drop the corrupt header line and treat the
				// trace as headerless.
				return nil
			}
			rd.header = h
			rd.hasHdr = true
			return nil
		}
		rd.pending = append(rd.pending[:0], text...)
		rd.hasPending = true
		return nil
	}
}

// Read returns the next record, or io.EOF at end of stream.
func (rd *Reader) Read() (Record, error) {
	rec, err := rd.read()
	if err != nil {
		rd.end()
	}
	return rec, err
}

// end gives the decode state back once the stream's sticky result is set.
func (rd *Reader) end() {
	rd.st.release()
	rd.st = nil
}

// read parses the next record, taking a decode state at the first one.
// An error is sticky; the state stays taken until end.
func (rd *Reader) read() (Record, error) {
	if rd.err != nil {
		return Record{}, rd.err
	}
	if err := rd.ensureHeader(); err != nil {
		rd.err = err
		return Record{}, err
	}
	for {
		var text []byte
		if rd.hasPending {
			text = rd.pending
			rd.hasPending = false
		} else {
			var err error
			text, err = rd.readLine()
			if err == io.EOF {
				rd.err = io.EOF
				return Record{}, rd.err
			}
			if err != nil {
				if ble, ok := err.(*BadLineError); ok {
					if err = rd.opts.skip(ble, &rd.bad); err == nil {
						continue
					}
				}
				rd.err = err
				return Record{}, rd.err
			}
			text = bytes.TrimSpace(text)
			if len(text) == 0 {
				continue
			}
		}
		if rd.st == nil {
			rd.st = getDecodeState()
		}
		rec, perr := rd.st.dec.intern.ParseRecord(text)
		if perr != nil {
			ble := &BadLineError{Line: rd.line, Text: string(text), Err: perr}
			if rd.err = rd.opts.skip(ble, &rd.bad); rd.err != nil {
				return Record{}, rd.err
			}
			continue
		}
		return rec, nil
	}
}

// NextBatch returns the next records, up to DefaultBatchRecords of them
// (see RecordSource). The records decoded before an error come first, as
// one batch; the sticky error follows on the next call, which gives the
// decode state back.
func (rd *Reader) NextBatch() ([]Record, error) {
	b, err := rd.nextBatch(nil)
	if len(b) > 0 {
		return b, nil
	}
	return nil, err
}

// nextBatch reads the next records, up to DefaultBatchRecords of them,
// into the decode state's record buffer, and calls each (when non-nil) on
// every record as soon as it is read, while Line is still its line. It
// returns the batch and the error that ended it early, which is sticky.
// An error before the first record gives the decode state back.
func (rd *Reader) nextBatch(each func(*Record)) ([]Record, error) {
	rec, err := rd.read()
	if err != nil {
		rd.end()
		return nil, err
	}
	b := rd.st.recs[:0]
	for {
		b = append(b, rec)
		if each != nil {
			each(&b[len(b)-1])
		}
		if len(b) == DefaultBatchRecords {
			break
		}
		if rec, err = rd.read(); err != nil {
			break
		}
	}
	rd.st.recs = b
	return b, err
}

// ReadAll reads the remaining records into a slice.
func (rd *Reader) ReadAll() ([]Record, error) { return ReadSource(rd) }

// Writer streams records to a trace file in Gleipnir format.
type Writer struct {
	bw        *bufio.Writer
	scratch   []byte
	wroteHdr  bool
	recsSoFar int
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 64*1024)}
}

// WriteHeader writes the START line; it must precede any record.
func (wr *Writer) WriteHeader(h Header) error {
	if wr.wroteHdr {
		return fmt.Errorf("trace: header written twice")
	}
	if wr.recsSoFar > 0 {
		return fmt.Errorf("trace: header after records")
	}
	wr.wroteHdr = true
	_, err := fmt.Fprintln(wr.bw, h.String())
	return err
}

// Write appends one record. It renders into a writer-owned scratch buffer,
// so steady-state writes perform no allocations.
func (wr *Writer) Write(r *Record) error {
	wr.scratch = append(r.AppendText(wr.scratch[:0]), '\n')
	if _, err := wr.bw.Write(wr.scratch); err != nil {
		return err
	}
	wr.recsSoFar++
	return nil
}

// Flush flushes buffered output.
func (wr *Writer) Flush() error { return wr.bw.Flush() }

// Records returns the number of records successfully written so far.
func (wr *Writer) Records() int { return wr.recsSoFar }

// ParseAll parses a whole trace held in a string, returning header and
// records. Traces without a START line get a zero header.
func ParseAll(src string) (Header, []Record, error) {
	rd := NewReader(strings.NewReader(src))
	h, err := rd.Header()
	if err != nil && err != io.EOF {
		return h, nil, err
	}
	recs, err := rd.ReadAll()
	return h, recs, err
}

// Format renders a header and records as a trace file string.
func Format(h Header, recs []Record) string {
	var buf []byte
	buf = append(buf, h.String()...)
	buf = append(buf, '\n')
	for i := range recs {
		buf = recs[i].AppendText(buf)
		buf = append(buf, '\n')
	}
	return string(buf)
}
