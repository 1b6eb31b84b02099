package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

const sampleTrace = `START PID 13063
S 7ff0001b0 8 main LV 0 1 _zzq_result
L 7ff0001b0 8 main
S 000601040 4 main GV glScalar
S 7ff0001bc 4 main LV 0 1 lcScalar
S 0006010e0 8 foo GS glStructArray[0].d1
M 7ff0001b8 4 main LV 0 1 i
`

func TestReaderBasics(t *testing.T) {
	rd := NewReader(strings.NewReader(sampleTrace))
	h, err := rd.Header()
	if err != nil {
		t.Fatal(err)
	}
	if h.PID != 13063 {
		t.Errorf("pid = %d", h.PID)
	}
	recs, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[2].Site.Var().Root != "glScalar" {
		t.Errorf("record 2 = %+v", recs[2])
	}
	if recs[4].Site.Var().String() != "glStructArray[0].d1" {
		t.Errorf("record 4 var = %q", recs[4].Site.Var())
	}
}

func TestReaderNoHeader(t *testing.T) {
	rd := NewReader(strings.NewReader("S 000601040 4 main GV glScalar\n"))
	h, err := rd.Header()
	if err != nil {
		t.Fatal(err)
	}
	if h.PID != 0 {
		t.Errorf("pid = %d", h.PID)
	}
	recs, err := rd.ReadAll()
	if err != nil || len(recs) != 1 {
		t.Fatalf("recs=%d err=%v", len(recs), err)
	}
}

func TestReaderSkipsBlankLines(t *testing.T) {
	src := "START PID 1\n\nS 000601040 4 main GV glScalar\n\n\nL 000601040 4 main GV glScalar\n"
	_, recs, err := ParseAll(src)
	if err != nil || len(recs) != 2 {
		t.Fatalf("recs=%d err=%v", len(recs), err)
	}
}

func TestReaderEmptyInput(t *testing.T) {
	rd := NewReader(strings.NewReader(""))
	if _, err := rd.Read(); err != io.EOF {
		t.Errorf("err = %v, want EOF", err)
	}
	// Header on empty input returns zero header, no error.
	rd2 := NewReader(strings.NewReader(""))
	if h, err := rd2.Header(); err != nil || h.PID != 0 {
		t.Errorf("header on empty: %v %v", h, err)
	}
}

func TestReaderBadLineReportsLineNumber(t *testing.T) {
	src := "START PID 1\nS 000601040 4 main GV glScalar\nBOGUS LINE HERE ZZ\n"
	rd := NewReader(strings.NewReader(src))
	if _, err := rd.Read(); err != nil {
		t.Fatal(err)
	}
	_, err := rd.Read()
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("err = %v, want line 3 mention", err)
	}
	// Error is sticky.
	if _, err2 := rd.Read(); err2 != err {
		t.Errorf("error not sticky: %v vs %v", err2, err)
	}
}

func TestWriterRoundTrip(t *testing.T) {
	h, recs, err := ParseAll(sampleTrace)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	wr := NewWriter(&buf)
	if err := wr.WriteHeader(h); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := wr.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != sampleTrace {
		t.Errorf("round trip mismatch:\n got %q\nwant %q", buf.String(), sampleTrace)
	}
	if wr.Records() != len(recs) {
		t.Errorf("Records() = %d", wr.Records())
	}
}

func TestWriterHeaderTwice(t *testing.T) {
	wr := NewWriter(io.Discard)
	if err := wr.WriteHeader(Header{PID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := wr.WriteHeader(Header{PID: 2}); err == nil {
		t.Error("second header accepted")
	}
}

func TestWriterHeaderAfterRecords(t *testing.T) {
	wr := NewWriter(io.Discard)
	r, _ := ParseRecord("L 7ff0001b0 8 main")
	if err := wr.Write(&r); err != nil {
		t.Fatal(err)
	}
	if err := wr.WriteHeader(Header{PID: 1}); err == nil {
		t.Error("header after records accepted")
	}
}

func TestFormatMatchesWriter(t *testing.T) {
	h, recs, err := ParseAll(sampleTrace)
	if err != nil {
		t.Fatal(err)
	}
	if Format(h, recs) != sampleTrace {
		t.Error("Format mismatch")
	}
}

func TestParseAllError(t *testing.T) {
	if _, _, err := ParseAll("START PID 1\ngarbage here zz\n"); err == nil {
		t.Error("garbage accepted")
	}
}
