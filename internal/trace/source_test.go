package trace

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"unsafe"
)

// contractBlock is the block size of the binary inputs of the source
// contract table; text sources batch DefaultBatchRecords records.
const contractBlock = 512

// sourceCase is one row of the source contract table: how to open a
// RecordSource over an input, and what it must do over the clean and
// the damaged input.
type sourceCase struct {
	name       string
	open       func([]byte) RecordSource
	clean, bad []byte // bad is nil where the source is not given damage
	batch      int    // the most records a batch may hold
	badAt      int    // index of the first record the damage loses
	badLine    int    // BadLineError.Line of the damage
	validating bool   // a Validator: whole clean batches, then io.EOF
}

// sourceContract returns the one table TestSourceMatchesReadAll,
// TestSourceBatchContract and TestSourcePartialBatchBeforeError run:
// every RecordSource the package makes, over both containers, clean and
// with one damaged unit. It also returns the serial reference (the text
// Reader's record-at-a-time Read) and its header.
func sourceContract(t *testing.T) (Header, []Record, []sourceCase) {
	t.Helper()
	text := bigTextTrace(2000)
	var want []Record
	for rd := NewReader(strings.NewReader(text)); ; {
		rec, err := rd.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	h := Header{PID: 42}
	bin := encodeBinary(t, &h, want, contractBlock)

	// One damaged unit each: a garbage line in place of record 5000, and
	// a payload bit flip in the fourth block.
	lines := strings.SplitAfter(text, "\n")
	lines[5001] = "BOGUS\n"
	badText := strings.Join(lines, "")
	badBin := append([]byte(nil), bin...)
	tr, err := NewIndexedBytes(bin)
	if err != nil {
		t.Fatal(err)
	}
	badBin[tr.Index().Offsets[3]+16] ^= 0x10

	indexed := func(data []byte) RecordSource {
		tr, err := NewIndexedBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		return tr.Source(0, tr.NumBlocks(), DecodeOptions{})
	}
	validator := func(data []byte) RecordSource {
		v, err := NewValidator(context.Background(), bytes.NewReader(data), ValidateOptions{SkipRegionChecks: true})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	textReader := func(data []byte) RecordSource { return NewReader(bytes.NewReader(data)) }
	binReader := func(data []byte) RecordSource { return NewBinaryReader(bytes.NewReader(data)) }
	slice := func(data []byte) RecordSource {
		h, hasHdr, recs, err := DecodeBytes(data, DecodeOptions{}, 2)
		if err != nil {
			t.Fatal(err)
		}
		return NewSliceSource(h, hasHdr, recs, 0)
	}

	return h, want, []sourceCase{
		{name: "text/Reader", open: textReader, clean: []byte(text), bad: []byte(badText),
			batch: DefaultBatchRecords, badAt: 5000, badLine: 5002},
		{name: "text/Validator", open: validator, clean: []byte(text), bad: []byte(badText),
			batch: DefaultBatchRecords, badAt: 5000, validating: true},
		{name: "text/SliceSource", open: slice, clean: []byte(text), batch: DefaultBatchRecords},
		{name: "binary/BinaryReader", open: binReader, clean: bin, bad: badBin,
			batch: contractBlock, badAt: 3 * contractBlock, badLine: 4},
		{name: "binary/IndexedTrace.Source", open: indexed, clean: bin, bad: badBin,
			batch: contractBlock, badAt: 3 * contractBlock, badLine: 4},
		{name: "binary/Validator", open: validator, clean: bin, bad: badBin,
			batch: contractBlock, badAt: 3 * contractBlock, validating: true},
		{name: "binary/SliceSource", open: slice, clean: bin, batch: DefaultBatchRecords},
	}
}

// drainSource drains src and returns its records, the size of each
// batch and the error that ended it. The end must come with no records
// and be sticky.
func drainSource(t *testing.T, src RecordSource) (got []Record, sizes []int, end error) {
	t.Helper()
	for {
		b, err := src.NextBatch()
		if err != nil {
			if b != nil {
				t.Fatalf("NextBatch returned %d records with %v", len(b), err)
			}
			end = err
			break
		}
		got = append(got, b...)
		sizes = append(sizes, len(b))
	}
	for i := 0; i < 2; i++ {
		if b, err := src.NextBatch(); b != nil || err != end {
			t.Fatalf("NextBatch after the end = (%d records, %v), want (nil, %v)", len(b), err, end)
		}
	}
	return got, sizes, end
}

// TestSourceMatchesReadAll: over a clean input every source has the
// header and returns the serial reference's records, then a sticky
// io.EOF.
func TestSourceMatchesReadAll(t *testing.T) {
	h, want, cases := sourceContract(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.open(tc.clean)
			if gh, err := src.Header(); err != nil || gh != h || !src.HasHeader() {
				t.Fatalf("header = %+v (%v), hasHdr %v", gh, err, src.HasHeader())
			}
			got, _, end := drainSource(t, src)
			if end != io.EOF {
				t.Fatalf("end = %v, want io.EOF", end)
			}
			checkRecords(t, "clean", got, want)
		})
	}
}

// TestSourceBatchContract: clean or damaged, every batch a source
// returns holds at least one record and at most the source's batch size.
func TestSourceBatchContract(t *testing.T) {
	_, _, cases := sourceContract(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, data := range [][]byte{tc.clean, tc.bad} {
				if data == nil {
					continue
				}
				_, sizes, _ := drainSource(t, tc.open(data))
				for i, n := range sizes {
					if n == 0 || n > tc.batch {
						t.Fatalf("batch %d holds %d records, want 1..%d", i, n, tc.batch)
					}
				}
			}
		})
	}
}

// TestSourcePartialBatchBeforeError: over a damaged input a source
// yields the records before the damage and then a sticky BadLineError at
// the damaged line or block. A Validator forwards only the whole batches
// that drew no error and ends with io.EOF (see Validator).
func TestSourcePartialBatchBeforeError(t *testing.T) {
	_, want, cases := sourceContract(t)
	for _, tc := range cases {
		if tc.bad == nil {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			got, _, end := drainSource(t, tc.open(tc.bad))
			if tc.validating {
				if end != io.EOF {
					t.Fatalf("end = %v, want io.EOF", end)
				}
				checkRecords(t, "damaged", got, want[:tc.badAt-tc.badAt%tc.batch])
				return
			}
			var ble *BadLineError
			if !errors.As(end, &ble) || ble.Line != tc.badLine {
				t.Fatalf("end = %v, want a BadLineError at line %d", end, tc.badLine)
			}
			checkRecords(t, "damaged", got, want[:tc.badAt])
		})
	}
}

// TestSliceSource: windows cover the slice in order without copying.
func TestSliceSource(t *testing.T) {
	h, recs := sampleRecords(t)
	src := NewSliceSource(h, true, recs, 2)
	got, err := ReadSource(src)
	if err != nil || len(got) != len(recs) {
		t.Fatalf("got %d records err=%v", len(got), err)
	}
	empty := NewSliceSource(Header{}, false, nil, 0)
	if b, err := empty.NextBatch(); b != nil || err != io.EOF {
		t.Fatalf("empty source = (%v, %v), want (nil, EOF)", b, err)
	}
}

// TestReadSourceAllocs: draining a multi-block .glb through ReadSource
// allocates less than three times the bytes of the records it returns.
// A slice grown by append re-copies its prefix at every 1.25× step and
// allocates about five times the result.
func TestReadSourceAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	h, recs, err := ParseAll(bigTextTrace(20000))
	if err != nil {
		t.Fatal(err)
	}
	data := encodeBinary(t, &h, recs, 0)
	if _, err := ReadSource(NewBinaryReader(bytes.NewReader(data))); err != nil {
		t.Fatal(err)
	}
	before := heapAllocBytes()
	got, err := ReadSource(NewBinaryReader(bytes.NewReader(data)))
	allocated := heapAllocBytes() - before
	if err != nil || len(got) != len(recs) {
		t.Fatalf("drained %d of %d records, err %v", len(got), len(recs), err)
	}
	result := uint64(len(got)) * uint64(unsafe.Sizeof(Record{}))
	t.Logf("a %d-byte result allocated %d bytes (%.2f×)", result, allocated, float64(allocated)/float64(result))
	if allocated >= 3*result {
		t.Errorf("draining allocated %d bytes, want < 3 × the %d-byte result", allocated, result)
	}
}
