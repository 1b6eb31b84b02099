package faultinject

import (
	"bytes"
	"errors"
	"testing"

	"tracedst/internal/trace"
)

// encodeIndexedGLB renders a small binary trace with the block-index
// footer enabled, two records per block.
func encodeIndexedGLB(t *testing.T) ([]byte, []trace.Record) {
	t.Helper()
	recs := []trace.Record{
		{Op: trace.Load, Addr: 0x1000, Size: 4, Func: "main"},
		{Op: trace.Store, Addr: 0x1004, Size: 4, Func: "main"},
		{Op: trace.Load, Addr: 0x2000, Size: 8, Func: "work"},
		{Op: trace.Load, Addr: 0x2008, Size: 8, Func: "work"},
		{Op: trace.Store, Addr: 0x1008, Size: 4, Func: "main"},
	}
	var buf bytes.Buffer
	bw := trace.NewBinaryWriter(&buf)
	bw.EnableIndex()
	bw.SetBlockRecords(2)
	if err := bw.WriteHeader(trace.Header{PID: 42}); err != nil {
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
	return buf.Bytes(), recs
}

// TestGLBFooterClassesFallBackToScan: every footer corruption class
// leaves the data blocks intact, so indexed open must succeed with a
// scan-built index identical to the healthy footer's, FooterErr must
// record the damage, and a full-range read must return every record.
func TestGLBFooterClassesFallBackToScan(t *testing.T) {
	clean, recs := encodeIndexedGLB(t)
	want, err := trace.NewIndexedBytes(clean)
	if err != nil {
		t.Fatal(err)
	}
	if !want.HasFooter() {
		t.Fatal("clean trace has no footer")
	}
	wix := want.Index()

	for _, class := range GLBFooterClasses() {
		t.Run(class.Name, func(t *testing.T) {
			data := class.Apply(append([]byte(nil), clean...))
			if bytes.Equal(data, clean) {
				t.Fatal("corruption class left the trace unchanged")
			}
			tr, err := trace.NewIndexedBytes(data)
			if err != nil {
				t.Fatalf("indexed open did not fall back to a scan: %v", err)
			}
			if tr.HasFooter() {
				t.Fatal("damaged footer accepted as a footer")
			}
			if tr.FooterErr() == nil {
				t.Fatal("fallback recorded no FooterErr")
			}
			gix := tr.Index()
			if gix.Records != wix.Records || gix.NumBlocks() != wix.NumBlocks() {
				t.Fatalf("scan index %+v != footer index %+v", gix, wix)
			}
			for i := range wix.Offsets {
				if gix.Offsets[i] != wix.Offsets[i] || gix.Counts[i] != wix.Counts[i] {
					t.Fatalf("block %d: scan (%d,%d) != footer (%d,%d)",
						i, gix.Offsets[i], gix.Counts[i], wix.Offsets[i], wix.Counts[i])
				}
			}
			got, err := trace.ReadSource(tr.Source(0, tr.NumBlocks(), trace.DecodeOptions{}))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(recs) {
				t.Fatalf("got %d records, want %d (footer damage must be lossless)", len(got), len(recs))
			}
			for i := range got {
				if !got[i].Equal(&recs[i]) {
					t.Fatalf("record %d = %v, want %v", i, &got[i], &recs[i])
				}
			}
		})
	}
}

// TestGLBFooterClassesValidateWarn: the validator reads every record of
// a footer-damaged trace and reports the damage as a severity-coded
// "footer" warning — no errors, so glcheck still exits 0 without -werror.
func TestGLBFooterClassesValidateWarn(t *testing.T) {
	clean, recs := encodeIndexedGLB(t)
	for _, class := range GLBFooterClasses() {
		t.Run(class.Name, func(t *testing.T) {
			data := class.Apply(append([]byte(nil), clean...))
			rep, err := trace.Validate(bytes.NewReader(data), trace.ValidateOptions{SkipRegionChecks: true})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("footer damage produced errors: %+v", rep.Diags)
			}
			if rep.Records != len(recs) {
				t.Fatalf("validated %d records, want %d", rep.Records, len(recs))
			}
			found := false
			for _, d := range rep.Diags {
				if d.Code == trace.CodeFooter && d.Sev == trace.SevWarn {
					found = true
				}
			}
			if !found {
				t.Fatalf("no %q warning among %+v", trace.CodeFooter, rep.Diags)
			}
		})
	}
}

// TestGLBFooterClassesNoTrailerPassThrough: traces without a footer pass
// through every class unchanged.
func TestGLBFooterClassesNoTrailerPassThrough(t *testing.T) {
	var buf bytes.Buffer
	bw := trace.NewBinaryWriter(&buf)
	rec := trace.Record{Op: trace.Load, Addr: 0x10, Size: 4, Func: "f"}
	if err := bw.Write(&rec); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	plain := buf.Bytes()
	for _, class := range GLBFooterClasses() {
		if got := class.Apply(plain); !bytes.Equal(got, plain) {
			t.Fatalf("%s modified a footerless trace", class.Name)
		}
	}
}

// TestGLBFlipPayloadBit: the flip changes one bit of the first block's
// payload and nothing else — the stored CRC and the footer stay intact —
// so the block index still opens, strict decoding fails that block's
// checksum, and lenient decoding drops exactly that block.
func TestGLBFlipPayloadBit(t *testing.T) {
	clean, recs := encodeIndexedGLB(t)
	data := GLBFlipPayloadBit(clean)
	if len(data) != len(clean) {
		t.Fatalf("length %d, want %d", len(data), len(clean))
	}
	diff := -1
	for i := range data {
		if data[i] != clean[i] {
			if diff >= 0 {
				t.Fatalf("bytes %d and %d both changed", diff, i)
			}
			diff = i
		}
	}
	if diff < 0 {
		t.Fatal("trace unchanged")
	}
	if x := data[diff] ^ clean[diff]; x&(x-1) != 0 {
		t.Fatalf("byte %d changed by %#x, want one bit", diff, x)
	}
	tr, err := trace.NewIndexedBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.HasFooter() || tr.FooterErr() != nil {
		t.Fatalf("footer damaged by a payload flip: %v", tr.FooterErr())
	}
	if off := tr.Index().Offsets; int64(diff) <= off[0] || (len(off) > 1 && int64(diff) >= off[1]) {
		t.Fatalf("flipped byte %d outside the first block [%d, %d)", diff, off[0], off[1])
	}

	_, err = trace.ReadSource(trace.NewSource(trace.NewBinaryReader(bytes.NewReader(data)), 0))
	if !errors.Is(err, trace.ErrBlockChecksum) {
		t.Fatalf("strict decode: err %v, want a checksum failure", err)
	}
	rd := trace.NewBinaryReaderOptions(bytes.NewReader(data), trace.DecodeOptions{Mode: trace.Lenient})
	got, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if rd.BadLines() != 1 || len(got) != len(recs)-2 {
		t.Fatalf("lenient decode: %d bad blocks, %d records; want 1 and %d", rd.BadLines(), len(got), len(recs)-2)
	}

	text := []byte("START PID 1\nL 000601040 4 main\n")
	if out := GLBFlipPayloadBit(text); !bytes.Equal(out, text) {
		t.Fatal("text trace modified")
	}
}
