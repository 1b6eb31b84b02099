package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// stutterReader returns its data and then a persistent non-EOF error — the
// shape of a faltering pipe or a torn network read.
type stutterReader struct {
	data []byte
	err  error
	off  int
}

func (r *stutterReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, r.err
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// TestOpenReaderShortInput: inputs shorter than the binary magic sniff as
// text instead of failing the open — including the empty input, which
// decodes to zero records.
func TestOpenReaderShortInput(t *testing.T) {
	for _, in := range []string{"", "L", "L 7ff"} {
		rd, format, err := OpenReader(strings.NewReader(in), DecodeOptions{})
		if err != nil {
			t.Fatalf("input %q: OpenReader error %v", in, err)
		}
		if format != FormatText {
			t.Fatalf("input %q: format = %v, want text", in, format)
		}
		recs, err := rd.ReadAll()
		if in == "" {
			if err != nil || len(recs) != 0 {
				t.Fatalf("empty input: recs=%d err=%v", len(recs), err)
			}
		} else if err == nil {
			// The malformed content must still fail loudly downstream.
			t.Fatalf("input %q: expected a decode error, got %d records", in, len(recs))
		}
	}
}

// TestOpenReaderShortReadError: a reader that yields a short prefix and
// then a non-EOF error must still open (sniffing as text); the I/O error
// resurfaces during decoding, not as a bare Peek failure at open time.
func TestOpenReaderShortReadError(t *testing.T) {
	ioErr := errors.New("torn read")
	rd, format, err := OpenReader(&stutterReader{data: []byte("L 7"), err: ioErr}, DecodeOptions{})
	if err != nil {
		t.Fatalf("OpenReader = %v, want short read tolerated", err)
	}
	if format != FormatText {
		t.Fatalf("format = %v, want text", format)
	}
	if _, err := rd.ReadAll(); !errors.Is(err, ioErr) {
		t.Fatalf("ReadAll error = %v, want the underlying %v surfaced", err, ioErr)
	}
}

// TestOpenReaderEmptyError: with no bytes at all and a non-EOF failure,
// the open itself reports the error — text decoding could not start
// either.
func TestOpenReaderEmptyError(t *testing.T) {
	ioErr := errors.New("device gone")
	if _, _, err := OpenReader(&stutterReader{err: ioErr}, DecodeOptions{}); !errors.Is(err, ioErr) {
		t.Fatalf("OpenReader = %v, want %v", err, ioErr)
	}
}

// TestOpenReaderBinary: a binary stream still sniffs as binary (the fix
// must not regress format detection).
func TestOpenReaderBinary(t *testing.T) {
	h, recs := sampleRecords(t)
	data := encodeBinary(t, &h, recs, 0)
	rd, format, err := OpenReader(bytes.NewReader(data), DecodeOptions{})
	if err != nil || format != FormatBinary {
		t.Fatalf("format=%v err=%v", format, err)
	}
	got, err := rd.ReadAll()
	if err != nil || len(got) != len(recs) {
		t.Fatalf("recs=%d err=%v", len(got), err)
	}
	if b, err := rd.NextBatch(); b != nil || err != io.EOF {
		t.Fatalf("NextBatch after end = (%v, %v), want (nil, EOF)", b, err)
	}
}
