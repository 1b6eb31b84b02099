package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
)

// bigTextTrace builds a synthetic trace of 3n records (hundreds of KB for
// the n used here), spanning several batches and blocks.
func bigTextTrace(n int) string {
	var b strings.Builder
	b.WriteString("START PID 42\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "S %09x 8 main LV 0 1 _zzq_result\n", 0x7ff0001b0+8*i)
		fmt.Fprintf(&b, "L %09x 4 compute GS glStructArray[%d].myArray[%d]\n", 0x601040+4*i, i%4, i%7)
		fmt.Fprintf(&b, "M %09x 4 main GV glScalar\n", 0x601040)
	}
	return b.String()
}

// decodeSerial is the serial reference DecodeBytes must match: one pass of
// the format's reader.
func decodeSerial(t *testing.T, data []byte, opts DecodeOptions) (Header, bool, []Record, error) {
	t.Helper()
	rd, _, err := OpenReader(bytes.NewReader(data), opts)
	if err != nil {
		t.Fatal(err)
	}
	h, err := rd.Header()
	if err != nil && err != io.EOF {
		return h, rd.HasHeader(), nil, err
	}
	recs, err := rd.ReadAll()
	return h, rd.HasHeader(), recs, err
}

func sameDecode(t *testing.T, data []byte, opts DecodeOptions, workers int) {
	t.Helper()
	wh, whas, wrecs, werr := decodeSerial(t, data, opts)
	gh, ghas, grecs, gerr := DecodeBytes(data, opts, workers)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("err mismatch: serial=%v parallel=%v", werr, gerr)
	}
	if werr != nil {
		if werr.Error() != gerr.Error() {
			t.Fatalf("err text mismatch:\nserial:   %v\nparallel: %v", werr, gerr)
		}
		// The partial output accompanying an error is part of the contract:
		// it must be the serial reader's exact kept-record prefix.
		if len(grecs) != len(wrecs) {
			t.Fatalf("partial record count mismatch: serial=%d parallel=%d", len(wrecs), len(grecs))
		}
		for i := range grecs {
			if !grecs[i].Equal(&wrecs[i]) {
				t.Fatalf("partial record %d mismatch: serial=%v parallel=%v", i, &wrecs[i], &grecs[i])
			}
		}
		return
	}
	if gh != wh || ghas != whas {
		t.Fatalf("header mismatch: serial=%+v/%v parallel=%+v/%v", wh, whas, gh, ghas)
	}
	if len(grecs) != len(wrecs) {
		t.Fatalf("record count mismatch: serial=%d parallel=%d", len(wrecs), len(grecs))
	}
	for i := range grecs {
		if !grecs[i].Equal(&wrecs[i]) {
			t.Fatalf("record %d mismatch: serial=%v parallel=%v", i, &wrecs[i], &grecs[i])
		}
	}
}

func TestDecodeBytesTextMatchesSerial(t *testing.T) {
	data := []byte(bigTextTrace(20000))
	for _, workers := range []int{1, 2, 3, 8} {
		sameDecode(t, data, DecodeOptions{}, workers)
	}
}

func TestDecodeBytesTextHeaderless(t *testing.T) {
	src := bigTextTrace(20000)
	data := []byte(src[strings.Index(src, "\n")+1:])
	sameDecode(t, data, DecodeOptions{}, 4)
}

func TestDecodeBytesTextSmallInput(t *testing.T) {
	sameDecode(t, []byte(sampleTrace), DecodeOptions{}, 8)
	sameDecode(t, nil, DecodeOptions{}, 8)
	sameDecode(t, []byte("\n\n\n"), DecodeOptions{}, 8)
}

func TestDecodeBytesTextBadLineFallsBack(t *testing.T) {
	data := []byte(bigTextTrace(20000))
	// Poison a line deep in the body; DecodeBytes must reproduce the
	// serial decoder's exact lenient semantics (ordered OnError with true
	// line numbers) and strict error text.
	idx := bytes.Index(data, []byte("\nM"))
	data[idx+1] = '?'

	sameDecode(t, data, DecodeOptions{}, 4) // strict: identical error

	var serialCalls, parCalls []int
	opts := DecodeOptions{Mode: Lenient, OnError: func(line int, text string, err error) {
		serialCalls = append(serialCalls, line)
	}}
	_, _, wrecs, werr := decodeSerial(t, data, opts)
	opts.OnError = func(line int, text string, err error) { parCalls = append(parCalls, line) }
	_, _, grecs, gerr := DecodeBytes(data, opts, 4)
	if werr != nil || gerr != nil {
		t.Fatalf("lenient errs: serial=%v parallel=%v", werr, gerr)
	}
	if len(grecs) != len(wrecs) {
		t.Fatalf("lenient record counts: serial=%d parallel=%d", len(wrecs), len(grecs))
	}
	if len(parCalls) != 1 || len(serialCalls) != 1 || parCalls[0] != serialCalls[0] {
		t.Fatalf("OnError lines: serial=%v parallel=%v", serialCalls, parCalls)
	}
}

func TestDecodeBytesBinaryMatchesSerial(t *testing.T) {
	h, recs, err := ParseAll(bigTextTrace(5000))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	bw := NewBinaryWriter(&buf)
	bw.SetBlockRecords(512)
	if err := bw.WriteHeader(h); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := bw.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, workers := range []int{1, 2, 8} {
		sameDecode(t, data, DecodeOptions{}, workers)
	}

	// Damaged block: strict and lenient must both match serial.
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0xff
	sameDecode(t, bad, DecodeOptions{}, 4)
	var calls []int
	sameDecode(t, bad, DecodeOptions{Mode: Lenient}, 4)
	_, _, _, err = DecodeBytes(bad, DecodeOptions{Mode: Lenient, OnError: func(line int, text string, err2 error) {
		calls = append(calls, line)
		if !errors.Is(err2, ErrBlockChecksum) {
			t.Errorf("OnError err = %v", err2)
		}
	}}, 4)
	if err != nil || len(calls) != 1 {
		t.Fatalf("lenient damaged decode: err=%v calls=%v", err, calls)
	}

	// Truncated frame: identical hard error.
	sameDecode(t, data[:len(data)-5], DecodeOptions{}, 4)
}

// TestDecodeBytesBinaryFrameDamagePrefix: frame-walk failures (cuts that
// truncate a frame header or payload mid-file) must return the serial
// reader's exact kept-record prefix next to the identical error — the
// tightened partial-output contract, in both strict and lenient mode.
func TestDecodeBytesBinaryFrameDamagePrefix(t *testing.T) {
	h, recs, err := ParseAll(bigTextTrace(5000))
	if err != nil {
		t.Fatal(err)
	}
	data := encodeBinary(t, &h, recs, 512)
	for _, cut := range []int{1, 7, 100, len(data) / 2} {
		trunc := data[:len(data)-cut]
		for _, workers := range []int{1, 4} {
			sameDecode(t, trunc, DecodeOptions{}, workers)
			sameDecode(t, trunc, DecodeOptions{Mode: Lenient}, workers)
		}
	}
	// A mid-file cut leaves whole blocks before the damage: the partial
	// output must carry them, not come back empty.
	_, _, precs, perr := DecodeBytes(data[:len(data)/2], DecodeOptions{}, 4)
	if perr == nil {
		t.Fatal("mid-file truncation decoded cleanly")
	}
	if len(precs) == 0 {
		t.Fatal("partial output empty, want the decoded prefix")
	}
}

func TestDecodeParallelDeterministic(t *testing.T) {
	data := []byte(bigTextTrace(20000))
	_, _, first, err := DecodeBytes(data, DecodeOptions{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		_, _, again, err := DecodeBytes(data, DecodeOptions{}, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != len(first) {
			t.Fatalf("round %d: %d records, want %d", round, len(again), len(first))
		}
		for i := range again {
			if !again[i].Equal(&first[i]) {
				t.Fatalf("round %d: record %d differs", round, i)
			}
		}
	}
}

// TestDecodeBytesForgedCountAllocs: a frame that claims as many records as
// its payload has bytes cannot decode (a record takes at least
// minRecordBytes), so DecodeBytes must not size its result by that claim:
// a 1 MiB block claiming 2^20 records would ask for 88 MiB.
func TestDecodeBytesForgedCountAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 1 << 20
	data := append(append([]byte(nil), binaryMagic[:]...), 1)
	data = binary.AppendVarint(data, 7)
	data = binary.AppendUvarint(data, n)
	data = binary.AppendUvarint(data, n)
	data = binary.LittleEndian.AppendUint32(data, 0)
	data = append(data, make([]byte, n)...)
	before := heapAllocBytes()
	_, _, recs, err := DecodeBytes(data, DecodeOptions{}, 2)
	allocated := heapAllocBytes() - before
	if !errors.Is(err, ErrBlockChecksum) || len(recs) != 0 {
		t.Fatalf("DecodeBytes = %d records, err %v; want a checksum failure", len(recs), err)
	}
	if allocated > 8*uint64(len(data)) {
		t.Errorf("DecodeBytes allocated %d bytes for a %d-byte trace", allocated, len(data))
	}
}
