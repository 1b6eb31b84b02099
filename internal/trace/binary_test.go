package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// encodeBinary renders header+records to the binary format with the given
// block size (0 = default).
func encodeBinary(t *testing.T, h *Header, recs []Record, blockRecs int) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := NewBinaryWriter(&buf)
	if blockRecs > 0 {
		bw.SetBlockRecords(blockRecs)
	}
	if h != nil {
		if err := bw.WriteHeader(*h); err != nil {
			t.Fatal(err)
		}
	}
	for i := range recs {
		if err := bw.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if bw.Records() != len(recs) {
		t.Fatalf("Records() = %d, want %d", bw.Records(), len(recs))
	}
	return buf.Bytes()
}

func sampleRecords(t *testing.T) (Header, []Record) {
	t.Helper()
	h, recs, err := ParseAll(sampleTrace)
	if err != nil {
		t.Fatal(err)
	}
	return h, recs
}

func TestBinaryRoundTrip(t *testing.T) {
	h, recs := sampleRecords(t)
	for _, blockRecs := range []int{1, 2, 0} {
		data := encodeBinary(t, &h, recs, blockRecs)
		rd := NewBinaryReader(bytes.NewReader(data))
		gh, err := rd.Header()
		if err != nil {
			t.Fatal(err)
		}
		if gh != h || !rd.HasHeader() {
			t.Fatalf("block=%d header = %+v hasHdr=%v", blockRecs, gh, rd.HasHeader())
		}
		got, err := rd.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(recs) {
			t.Fatalf("block=%d got %d records, want %d", blockRecs, len(got), len(recs))
		}
		for i := range got {
			if !got[i].Equal(&recs[i]) {
				t.Fatalf("block=%d record %d = %v, want %v", blockRecs, i, &got[i], &recs[i])
			}
		}
		// text -> binary -> text is byte-identical.
		if Format(gh, got) != sampleTrace {
			t.Fatalf("block=%d text round trip mismatch:\n%q", blockRecs, Format(gh, got))
		}
	}
}

func TestBinaryHeaderless(t *testing.T) {
	_, recs := sampleRecords(t)
	data := encodeBinary(t, nil, recs, 0)
	rd := NewBinaryReader(bytes.NewReader(data))
	h, err := rd.Header()
	if err != nil {
		t.Fatal(err)
	}
	if h.PID != 0 || rd.HasHeader() {
		t.Fatalf("headerless decode: header=%+v hasHdr=%v", h, rd.HasHeader())
	}
	got, err := rd.ReadAll()
	if err != nil || len(got) != len(recs) {
		t.Fatalf("recs=%d err=%v", len(got), err)
	}
}

func TestBinaryEmpty(t *testing.T) {
	data := encodeBinary(t, &Header{PID: 7}, nil, 0)
	rd := NewBinaryReader(bytes.NewReader(data))
	h, err := rd.Header()
	if err != nil || h.PID != 7 {
		t.Fatalf("header=%+v err=%v", h, err)
	}
	recs, err := rd.ReadAll()
	if err != nil || len(recs) != 0 {
		t.Fatalf("recs=%d err=%v", len(recs), err)
	}
	if b, err := rd.NextBatch(); b != nil || err != io.EOF {
		t.Fatalf("NextBatch after end = (%v, %v), want (nil, EOF)", b, err)
	}
}

func TestBinaryChecksumStrict(t *testing.T) {
	h, recs := sampleRecords(t)
	data := encodeBinary(t, &h, recs, 2) // 3 blocks
	data[len(data)-1] ^= 0xff            // damage the last block's payload
	rd := NewBinaryReader(bytes.NewReader(data))
	got, err := rd.ReadAll()
	if !errors.Is(err, ErrBlockChecksum) {
		t.Fatalf("err = %v, want ErrBlockChecksum", err)
	}
	var ble *BadLineError
	if !errors.As(err, &ble) || ble.Line != 3 {
		t.Fatalf("err = %v, want block ordinal 3", err)
	}
	if len(got) != 4 {
		t.Fatalf("decoded %d records before the bad block, want 4", len(got))
	}
}

func TestBinaryChecksumLenient(t *testing.T) {
	h, recs := sampleRecords(t)
	data := encodeBinary(t, &h, recs, 2)
	// Damage the middle block: locate it by re-encoding the first block
	// alone and flipping a byte beyond that prefix.
	oneBlock := encodeBinary(t, &h, recs[:2], 2)
	data[len(oneBlock)+8] ^= 0xff
	var calls []int
	rd := NewBinaryReaderOptions(bytes.NewReader(data), DecodeOptions{
		Mode: Lenient,
		OnError: func(line int, text string, err error) {
			calls = append(calls, line)
			if !errors.Is(err, ErrBlockChecksum) {
				t.Errorf("OnError err = %v", err)
			}
		},
	})
	got, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]Record(nil), recs[:2]...), recs[4:]...)
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(&want[i]) {
			t.Fatalf("record %d = %v, want %v", i, &got[i], &want[i])
		}
	}
	if rd.BadLines() != 1 || len(calls) != 1 || calls[0] != 2 {
		t.Fatalf("bad=%d calls=%v, want one bad block with ordinal 2", rd.BadLines(), calls)
	}
}

func TestBinaryLenientBudget(t *testing.T) {
	h, recs := sampleRecords(t)
	data := encodeBinary(t, &h, recs, 1) // 6 blocks
	// Corrupt the last byte of every block by walking backwards: corrupt
	// the whole tail region after the preamble.
	one := encodeBinary(t, &h, recs[:1], 1)
	two := encodeBinary(t, &h, recs[:2], 1)
	data[len(one)-1] ^= 0xff // block 1
	data[len(two)-1] ^= 0xff // block 2
	rd := NewBinaryReaderOptions(bytes.NewReader(data), DecodeOptions{Mode: Lenient, MaxBadLines: 1})
	_, err := rd.ReadAll()
	if err == nil || !strings.Contains(err.Error(), "budget 1 exhausted") {
		t.Fatalf("err = %v, want budget exhausted", err)
	}
}

func TestBinaryTruncation(t *testing.T) {
	h, recs := sampleRecords(t)
	data := encodeBinary(t, &h, recs, 0)
	rd := NewBinaryReader(bytes.NewReader(data[:len(data)-3]))
	_, err := rd.ReadAll()
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("err = %v, want truncated payload", err)
	}
}

// TestBinaryReadBatch: NextBatch hands out the decoded blocks themselves.
func TestBinaryReadBatch(t *testing.T) {
	h, recs := sampleRecords(t)
	data := encodeBinary(t, &h, recs, 2)
	rd := NewBinaryReader(bytes.NewReader(data))
	var got []Record
	for {
		b, err := rd.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if want := min(2, len(recs)-len(got)); len(b) != want {
			t.Fatalf("batch of %d records, want the %d of a block", len(b), want)
		}
		got = append(got, b...)
	}
	if len(got) != len(recs) {
		t.Fatalf("batched decode got %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		if !got[i].Equal(&recs[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestDetectFormatAndOpenReader(t *testing.T) {
	h, recs := sampleRecords(t)
	bin := encodeBinary(t, &h, recs, 0)
	if f := DetectFormat(bin); f != FormatBinary {
		t.Fatalf("DetectFormat(binary) = %v", f)
	}
	if f := DetectFormat([]byte(sampleTrace)); f != FormatText {
		t.Fatalf("DetectFormat(text) = %v", f)
	}
	if f := DetectFormat(nil); f != FormatText {
		t.Fatalf("DetectFormat(empty) = %v", f)
	}
	for _, tc := range []struct {
		data []byte
		want FileFormat
	}{
		{bin, FormatBinary},
		{[]byte(sampleTrace), FormatText},
	} {
		rd, f, err := OpenReader(bytes.NewReader(tc.data), DecodeOptions{})
		if err != nil || f != tc.want {
			t.Fatalf("OpenReader format = %v err = %v, want %v", f, err, tc.want)
		}
		gh, err := rd.Header()
		if err != nil || gh != h || !rd.HasHeader() {
			t.Fatalf("%v header = %+v err = %v", f, gh, err)
		}
		got, err := rd.ReadAll()
		if err != nil || len(got) != len(recs) {
			t.Fatalf("%v recs = %d err = %v", f, len(got), err)
		}
	}
}

func TestNewWriterFormat(t *testing.T) {
	h, recs := sampleRecords(t)
	for _, f := range []FileFormat{FormatText, FormatBinary, FormatUnknown} {
		var buf bytes.Buffer
		wr := NewWriterFormat(&buf, f)
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
		want := FormatText
		if f == FormatBinary {
			want = FormatBinary
		}
		if got := DetectFormat(buf.Bytes()); got != want {
			t.Fatalf("format %v wrote %v", f, got)
		}
	}
}
