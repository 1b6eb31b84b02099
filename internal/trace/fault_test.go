package trace

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"tracedst/internal/ctype"
)

// failWriter fails after n successful writes.
type failWriter struct {
	n int
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

func TestWriterPropagatesIOErrors(t *testing.T) {
	// The bufio layer only surfaces the error at Flush (or once the buffer
	// fills), so write records until something fails.
	wr := NewWriter(&failWriter{n: 0})
	rec, _ := ParseRecord("S 000601040 4 main GV g")
	var err error
	if err = wr.WriteHeader(Header{PID: 1}); err == nil {
		for i := 0; i < 100_000 && err == nil; i++ {
			err = wr.Write(&rec)
		}
		if err == nil {
			err = wr.Flush()
		}
	}
	if err == nil {
		t.Error("io error never surfaced")
	}
}

// failReader fails after delivering its prefix.
type failReader struct {
	data []byte
	err  error
}

func (r *failReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

func TestReaderPropagatesIOErrors(t *testing.T) {
	rd := NewReader(&failReader{
		data: []byte("START PID 1\nS 000601040 4 main GV g\n"),
		err:  errors.New("cable pulled"),
	})
	if _, err := rd.Read(); err != nil {
		t.Fatalf("first record: %v", err)
	}
	_, err := rd.Read()
	if err == nil || !strings.Contains(err.Error(), "cable pulled") {
		t.Errorf("err = %v", err)
	}
	// I/O errors carry the line being read, like parse errors do.
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("err = %v, want line 3 mention", err)
	}
}

func TestReaderOverlongLine(t *testing.T) {
	// Lines beyond the 1 MiB limit must fail cleanly, with line context.
	long := "S 000601040 4 main GV " + strings.Repeat("x", 2<<20)
	rd := NewReader(strings.NewReader("START PID 1\n" + long + "\n"))
	_, err := rd.Read()
	if err == nil {
		t.Fatal("overlong line accepted")
	}
	if !errors.Is(err, ErrLineTooLong) || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("err = %v, want ErrLineTooLong at line 2", err)
	}
}

// TestParseRecordNeverPanics fuzzes the parser with arbitrary field soup.
func TestParseRecordNeverPanics(t *testing.T) {
	pieces := []string{
		"S", "L", "M", "X", "Q", "main", "GV", "LS", "LV", "GS",
		"7ff0001b0", "zz", "4", "-1", "0", "1", "glScalar", "a[", "a[3].b",
		"", "   ", "_zzq_result", "99999999999999999999",
	}
	f := func(picks []uint8) bool {
		var fields []string
		for _, p := range picks {
			fields = append(fields, pieces[int(p)%len(pieces)])
		}
		line := strings.Join(fields, " ")
		rec, err := ParseRecord(line)
		if err != nil {
			return true
		}
		// Anything accepted must round-trip.
		again, err2 := ParseRecord(rec.String())
		return err2 == nil && again.Equal(&rec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestParseHeaderNeverPanics fuzzes the header parser.
func TestParseHeaderNeverPanics(t *testing.T) {
	f := func(s string) bool {
		h, err := ParseHeader(s)
		if err != nil {
			return true
		}
		_, err2 := ParseHeader(h.String())
		return err2 == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestFormatLargeTraceStreams(t *testing.T) {
	// Sanity: formatting and re-parsing a generated trace of 10k records.
	recs := make([]Record, 10_000)
	for i := range recs {
		recs[i] = Record{
			Op:   Load,
			Addr: uint64(i) * 8,
			Size: 8,
			Site: NewSite(fmt.Sprintf("f%d", i%7), ctype.AccessExpr{}),
		}
	}
	text := Format(Header{PID: 9}, recs)
	h, parsed, err := ParseAll(text)
	if err != nil || h.PID != 9 || len(parsed) != len(recs) {
		t.Fatalf("round trip: %v %d %v", h, len(parsed), err)
	}
}
