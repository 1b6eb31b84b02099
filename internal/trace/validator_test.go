package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"tracedst/internal/ctype"
)

// validatorRecords returns n clean records: scalar global accesses in the
// data region.
func validatorRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Op: Load, Addr: 0x601040 + uint64(i%64)*4, Size: 4, Func: "main",
			HasSym: true, Vis: Global, Var: ctype.AccessExpr{Root: "g"},
		}
	}
	return recs
}

// outOfOrderThread is a record the checks reject: a local access from
// thread 3 before threads 1 and 2 were seen.
var outOfOrderThread = Record{
	Op: Load, Addr: 0x7ff0001b0, Size: 8, Func: "main",
	HasSym: true, Vis: Local, Thread: 3, Var: ctype.AccessExpr{Root: "l"},
}

func encodeText(t *testing.T, h Header, recs []Record) string {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteHeader(h); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// flipBlockPayload flips a bit in the middle of block k's payload and
// leaves its stored CRC alone.
func flipBlockPayload(t *testing.T, data []byte, k int) []byte {
	t.Helper()
	tr, err := NewIndexedBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	off := int(tr.Index().Offsets[k])
	plen, n1 := binary.Uvarint(data[off:])
	_, n2 := binary.Uvarint(data[off+n1:])
	out := append([]byte(nil), data...)
	out[off+n1+n2+4+int(plen)/2] ^= 0x04
	return out
}

// drainValidator pulls every batch out of v, copying the records handed
// on, then finishes it.
func drainValidator(t *testing.T, v *Validator) ([]Record, *Report) {
	t.Helper()
	var got []Record
	for {
		batch, err := v.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, batch...)
	}
	rep, err := v.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return got, rep
}

// TestValidatorForwardsUntilFirstError: the Validator hands on every batch
// before the first one with an error-severity finding and none from there
// on, the records it hands on are the decoded ones unchanged, and its
// report equals what Validate says about the same bytes.
func TestValidatorForwardsUntilFirstError(t *testing.T) {
	h := Header{PID: 42}
	const blk = 16
	recs := validatorRecords(640) // 40 binary blocks
	semantic := append([]Record(nil), recs...)
	semantic[100] = outOfOrderThread // block 6

	long := validatorRecords(10000) // 3 text batches
	longSemantic := append([]Record(nil), long...)
	longSemantic[9000] = outOfOrderThread // batch 2
	lines := strings.SplitAfter(encodeText(t, h, long), "\n")
	lines[5001] = "?? garbage\n" // record 5000, batch 1
	garbled := strings.Join(lines, "")

	clean := encodeBinary(t, &h, recs, blk)
	cases := []struct {
		name string
		data []byte
		want []Record // the records handed on
	}{
		{"binary/clean", clean, recs},
		{"binary/semantic", encodeBinary(t, &h, semantic, blk), recs[:6*blk]},
		{"binary/damaged-block", flipBlockPayload(t, clean, 6), recs[:6*blk]},
		// Framing damage ends the stream after the last whole block.
		{"binary/truncated", clean[:len(clean)-3], recs[:len(recs)-blk]},
		{"text/clean", []byte(encodeText(t, h, long)), long},
		{"text/garbage", []byte(garbled), long[:DefaultBatchRecords]},
		{"text/semantic", []byte(encodeText(t, h, longSemantic)), long[:2*DefaultBatchRecords]},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := Validate(bytes.NewReader(c.data), ValidateOptions{})
			if err != nil {
				t.Fatal(err)
			}
			v, err := NewValidator(context.Background(), bytes.NewReader(c.data), ValidateOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if hdr, _ := v.Header(); !v.HasHeader() || hdr != h {
				t.Errorf("header %+v (has %t), want %+v", hdr, v.HasHeader(), h)
			}
			got, rep := drainValidator(t, v)
			if len(got) != len(c.want) {
				t.Fatalf("handed on %d records, want %d", len(got), len(c.want))
			}
			for i := range got {
				if !got[i].Equal(&c.want[i]) {
					t.Fatalf("record %d = %v, want %v", i, &got[i], &c.want[i])
				}
			}
			if rep.Summary() != want.Summary() || rep.BadLines != want.BadLines {
				t.Errorf("report diverges from Validate:\n--- Validate ---\n%s--- Validator ---\n%s",
					want.Summary(), rep.Summary())
			}
			if rep.OK() != (len(c.want) == len(recs) || len(c.want) == len(long)) {
				t.Errorf("OK = %t with %d of the records handed on", rep.OK(), len(got))
			}
		})
	}
}

// cancelingReader serves data in small reads and cancels the pass once
// it has served past a given offset.
type cancelingReader struct {
	data   []byte
	off    int
	at     int
	cancel context.CancelFunc
}

func (r *cancelingReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	if r.off >= r.at {
		r.cancel()
	}
	n := copy(p[:min(len(p), 64)], r.data[r.off:])
	r.off += n
	return n, nil
}

// TestValidatorCancelDuringDrain: once a batch fails, the rest of the
// input is drained batch by batch, and a context canceled in that drain
// stops it at the next batch rather than at the end of the input.
func TestValidatorCancelDuringDrain(t *testing.T) {
	recs := validatorRecords(16000)
	recs[3] = outOfOrderThread
	data := encodeBinary(t, &Header{PID: 1}, recs, 16)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := &cancelingReader{data: data, at: len(data) / 10, cancel: cancel}
	v, err := NewValidator(ctx, r, ValidateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if batch, err := v.NextBatch(); !errors.Is(err, context.Canceled) {
		t.Fatalf("NextBatch = %d records, %v; want context.Canceled", len(batch), err)
	}
	if r.off > len(data)/5 {
		t.Errorf("drain read %d of %d bytes after the cancel at %d", r.off, len(data), r.at)
	}
	if _, err := v.Finish(); !errors.Is(err, context.Canceled) {
		t.Errorf("Finish after cancel: %v", err)
	}
	if _, err := ValidateCtx(ctx, bytes.NewReader(data), ValidateOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("ValidateCtx under a canceled context: %v", err)
	}
}
