package trace_test

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"tracedst/internal/faultinject"
	"tracedst/internal/trace"
)

// FuzzParseRecord asserts the record parser never panics and that every
// accepted line round-trips: String() re-parses to an Equal record.
func FuzzParseRecord(f *testing.F) {
	seeds := []string{
		"S 000601040 4 main GV glScalar",
		"L 7ff0001b0 8 main",
		"S 0006010e0 8 foo GS glStructArray[0].d1",
		"M 7ff0001b8 4 main LV 0 1 i",
		"S 7ff0001b0 8 main LS 2 3 lcStrcArray[1].myArray[9]",
		"X 7ff0001a8 8 foo",
		"START PID 13063",
		"S 000601040 4 main GV",
		"q zz -1 f GV x",
		"S 000601040 99999999999999999999 main GV g",
		"",
		"   ",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		rec, err := trace.ParseRecord(line)
		if err != nil {
			return
		}
		again, err2 := trace.ParseRecord(rec.String())
		if err2 != nil {
			t.Fatalf("round trip rejected: %q -> %q: %v", line, rec.String(), err2)
		}
		if !again.Equal(&rec) {
			t.Fatalf("round trip changed record: %q -> %q -> %q", line, rec.String(), again.String())
		}
	})
}

// FuzzParseHeader asserts the header parser never panics and accepted
// headers round-trip.
func FuzzParseHeader(f *testing.F) {
	for _, s := range []string{"START PID 13063", "START PID -1", "START", "START PID x", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		h, err := trace.ParseHeader(line)
		if err != nil {
			return
		}
		if _, err2 := trace.ParseHeader(h.String()); err2 != nil {
			t.Fatalf("round trip rejected: %q -> %q: %v", line, h.String(), err2)
		}
	})
}

// FuzzReader streams arbitrary bytes through both decoder modes: neither
// may panic, strict must stop at the first bad line, and lenient with an
// unlimited budget must always reach EOF.
func FuzzReader(f *testing.F) {
	f.Add("START PID 1\nS 000601040 4 main GV glScalar\n")
	f.Add("\x00\xff\nS 000601040 4\n\n")
	f.Add("START PID banana\nL 7ff0001b0 8 main\n")
	f.Fuzz(func(t *testing.T, src string) {
		strictRecs, _ := trace.NewReader(strings.NewReader(src)).ReadAll()
		rd := trace.NewReaderOptions(strings.NewReader(src), trace.DecodeOptions{Mode: trace.Lenient})
		lenRecs, err := rd.ReadAll()
		if err != nil {
			t.Fatalf("lenient decode with unlimited budget failed: %v", err)
		}
		if len(lenRecs) < len(strictRecs) {
			t.Fatalf("lenient recovered %d records, strict %d", len(lenRecs), len(strictRecs))
		}
	})
}

// FuzzBinaryReader streams arbitrary bytes through both .glb reader
// modes: neither may panic, strict never returns more records than
// lenient, and every record either returns holds a size a Record can
// carry and survives a BinaryWriter → BinaryReader round trip Equal. It is
// also the differential check of the decoders built on the block index:
// DecodeBytes on 1 and on 3 workers returns exactly BinaryReader's header,
// records and error, strict and lenient, and an IndexedTrace.Source that
// drains every block without error returns strict BinaryReader's records.
func FuzzBinaryReader(f *testing.F) {
	three := glbOf(f, "START PID 1\nS 000601040 4 main GV glScalar\nL 7ff0001b0 8 main LV 0 1 i\nM 000601040 4 main GV glScalar\n")
	f.Add(glbOf(f, "START PID 1\nS 000601040 4 main GV glScalar\nL 7ff0001b0 8 main LV 0 1 i\n"))
	f.Add(three)
	f.Add(faultinject.GLBForgeIndexGap(three, 0))
	f.Add(faultinject.GLBForgeIndexGap(three, 1))
	f.Add(faultinject.GLBFlipPayloadBit(three))
	for _, e := range fieldEdges {
		edge := glbOf(f, e.text(e.edge))
		f.Add(edge)
		f.Add(faultinject.GLBForgeVarint(edge, e.edge, e.past))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		lenientOpts := trace.DecodeOptions{Mode: trace.Lenient}
		srd := trace.NewBinaryReader(bytes.NewReader(data))
		strict, serr := srd.ReadAll()
		lrd := trace.NewBinaryReaderOptions(bytes.NewReader(data), lenientOpts)
		lenient, lerr := lrd.ReadAll()
		if len(strict) > len(lenient) {
			t.Fatalf("strict read %d records, lenient %d", len(strict), len(lenient))
		}
		for _, recs := range [][]trace.Record{strict, lenient} {
			for i := range recs {
				if recs[i].Size < 0 {
					t.Fatalf("record %d has size %d", i, recs[i].Size)
				}
			}
			var buf bytes.Buffer
			if err := writeTrace(&buf, trace.Header{}, false, recs, trace.FormatBinary); err != nil {
				t.Fatalf("encode: %v", err)
			}
			again, err := trace.NewBinaryReader(&buf).ReadAll()
			if err != nil || len(again) != len(recs) {
				t.Fatalf("round trip: %d of %d records, err %v", len(again), len(recs), err)
			}
			sameRecords(t, "round trip", again, recs)
		}
		if trace.DetectFormat(data) != trace.FormatBinary {
			return
		}
		for _, want := range []struct {
			opts trace.DecodeOptions
			rd   *trace.BinaryReader
			recs []trace.Record
			err  error
		}{{trace.DecodeOptions{}, srd, strict, serr}, {lenientOpts, lrd, lenient, lerr}} {
			wh, _ := want.rd.Header()
			for _, workers := range []int{1, 3} {
				h, hasHdr, got, err := trace.DecodeBytes(data, want.opts, workers)
				if fmt.Sprint(err) != fmt.Sprint(want.err) || h != wh || hasHdr != want.rd.HasHeader() {
					t.Fatalf("DecodeBytes(%v, %d workers) = header %v/%t, err %v; BinaryReader %v/%t, err %v",
						want.opts.Mode, workers, h, hasHdr, err, wh, want.rd.HasHeader(), want.err)
				}
				sameRecords(t, fmt.Sprintf("DecodeBytes(%v, %d workers)", want.opts.Mode, workers), got, want.recs)
			}
		}
		if tr, err := trace.NewIndexedBytes(data); err == nil {
			got, err := trace.ReadSource(tr.Source(0, tr.NumBlocks(), trace.DecodeOptions{}))
			if err == nil {
				if serr != nil {
					t.Fatalf("IndexedTrace.Source read cleanly; strict BinaryReader failed: %v", serr)
				}
				sameRecords(t, "IndexedTrace.Source", got, strict)
			}
		}
	})
}

// sameRecords fails t unless got and want hold Equal records.
func sameRecords(t *testing.T, what string, got, want []trace.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(&want[i]) {
			t.Fatalf("%s: record %d = %q, want %q", what, i, got[i].String(), want[i].String())
		}
	}
}

// FuzzCodecRoundTrip is the differential fuzzer for the two container
// formats: any text trace the lenient decoder accepts must survive a
// text → binary → text round trip byte-identically, and the byte-slice
// record parser must agree with the string parser on every input line.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add("START PID 13063\nS 000601040 4 main GV glScalar\nL 7ff0001b0 8 main\n")
	f.Add("S 0006010e0 8 foo GS glStructArray[0].d1\nM 7ff0001b8 4 main LV 0 1 i\n")
	f.Add("START PID -7\nX 7ff0001a8 8 foo\nS 7ff0001b0 8 main LS 2 3 a[1].b[9]\n")
	f.Add("junk\nS 000601040 4 main GV glScalar\n")
	// One spelling in two frames and on two threads, as a recursive
	// function's locals are.
	f.Add("START PID 1\nS 7ff0004b0 4 fact LV 0 1 n\nL 7ff000490 4 fact LV 1 1 n\n" +
		"S 7ff0004b0 4 fact LV 0 2 n\nL 7ff000490 4 fact LV 1 2 n\nL 7ff0004b0 4 fact LV 0 1 n\n")
	f.Add("S 7ff000060 8 foo LS 1 1 a[0].d1\nS 7ff000060 8 foo LS 0 1 a[0].d1\nS 7ff000060 8 foo LS 1 3 a[0].d1\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, src string) {
		// Differential check: the zero-alloc byte parser and the string
		// parser must accept the same lines and produce equal records.
		for _, line := range strings.Split(src, "\n") {
			rs, errS := trace.ParseRecord(line)
			rb, errB := trace.ParseRecordBytes([]byte(line))
			if (errS == nil) != (errB == nil) {
				t.Fatalf("parser disagreement on %q: string err=%v bytes err=%v", line, errS, errB)
			}
			if errS == nil && !rs.Equal(&rb) {
				t.Fatalf("parsers differ on %q: %q vs %q", line, rs.String(), rb.String())
			}
		}

		// Round trip: decode leniently, re-render as canonical text, then
		// push through the binary codec and back.
		rd := trace.NewReaderOptions(strings.NewReader(src), trace.DecodeOptions{Mode: trace.Lenient})
		recs, err := rd.ReadAll()
		if err != nil {
			t.Fatalf("lenient decode: %v", err)
		}
		h, err := rd.Header()
		if err != nil {
			t.Fatalf("header: %v", err)
		}
		hasHdr := rd.HasHeader()

		var canon bytes.Buffer
		if err := writeTrace(&canon, h, hasHdr, recs, trace.FormatText); err != nil {
			t.Fatalf("render text: %v", err)
		}

		var bin bytes.Buffer
		if err := writeTrace(&bin, h, hasHdr, recs, trace.FormatBinary); err != nil {
			t.Fatalf("encode binary: %v", err)
		}
		br := trace.NewBinaryReader(bytes.NewReader(bin.Bytes()))
		recs2, err := br.ReadAll()
		if err != nil {
			t.Fatalf("decode binary: %v", err)
		}
		h2, err := br.Header()
		if err != nil {
			t.Fatalf("binary header: %v", err)
		}
		if br.HasHeader() != hasHdr || (hasHdr && h2 != h) {
			t.Fatalf("header changed: %v/%v -> %v/%v", h, hasHdr, h2, br.HasHeader())
		}
		var canon2 bytes.Buffer
		if err := writeTrace(&canon2, h2, br.HasHeader(), recs2, trace.FormatText); err != nil {
			t.Fatalf("re-render text: %v", err)
		}
		if !bytes.Equal(canon.Bytes(), canon2.Bytes()) {
			t.Fatalf("text -> binary -> text changed the trace:\nbefore: %q\nafter:  %q",
				canon.String(), canon2.String())
		}
	})
}

// writeTrace renders records in the given container format.
func writeTrace(w io.Writer, h trace.Header, hasHdr bool, recs []trace.Record, f trace.FileFormat) error {
	tw := trace.NewWriterFormat(w, f)
	if hasHdr {
		if err := tw.WriteHeader(h); err != nil {
			return err
		}
	}
	for i := range recs {
		if err := tw.Write(&recs[i]); err != nil {
			return err
		}
	}
	return tw.Flush()
}
