package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// encodeIndexed renders header+records to the binary format with the
// block-index footer enabled.
func encodeIndexed(t *testing.T, h *Header, recs []Record, blockRecs int) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := NewBinaryWriter(&buf)
	bw.EnableIndex()
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
	return buf.Bytes()
}

// TestFooterBackwardCompatible: a footer-bearing trace decodes to the same
// records through the pre-footer serial reader and DecodeBytes —
// the footer rides as a record-free block old readers skip.
func TestFooterBackwardCompatible(t *testing.T) {
	h, recs := sampleRecords(t)
	for _, blockRecs := range []int{1, 2, 0} {
		indexed := encodeIndexed(t, &h, recs, blockRecs)
		plain := encodeBinary(t, &h, recs, blockRecs)
		if len(indexed) <= len(plain) {
			t.Fatalf("block=%d: indexed encoding (%d bytes) not longer than plain (%d)", blockRecs, len(indexed), len(plain))
		}
		if !bytes.HasPrefix(indexed, plain) {
			t.Fatalf("block=%d: footer is not a pure suffix", blockRecs)
		}

		rd := NewBinaryReader(bytes.NewReader(indexed))
		got, err := rd.ReadAll()
		if err != nil {
			t.Fatalf("block=%d: serial decode of indexed trace: %v", blockRecs, err)
		}
		if len(got) != len(recs) {
			t.Fatalf("block=%d: serial got %d records, want %d", blockRecs, len(got), len(recs))
		}
		for i := range got {
			if !got[i].Equal(&recs[i]) {
				t.Fatalf("block=%d: serial record %d = %v, want %v", blockRecs, i, &got[i], &recs[i])
			}
		}

		_, _, pgot, err := DecodeBytes(indexed, DecodeOptions{}, 4)
		if err != nil {
			t.Fatalf("block=%d: parallel decode of indexed trace: %v", blockRecs, err)
		}
		if len(pgot) != len(recs) {
			t.Fatalf("block=%d: parallel got %d records, want %d", blockRecs, len(pgot), len(recs))
		}
	}
}

// TestIndexedFooterMatchesScan: the footer index and the frame-scan index
// of the same trace are identical.
func TestIndexedFooterMatchesScan(t *testing.T) {
	h, recs := sampleRecords(t)
	indexed := encodeIndexed(t, &h, recs, 2)
	plain := encodeBinary(t, &h, recs, 2)

	ft, err := NewIndexedBytes(indexed)
	if err != nil {
		t.Fatal(err)
	}
	if !ft.HasFooter() {
		t.Fatal("indexed trace did not resolve its footer")
	}
	st, err := NewIndexedBytes(plain)
	if err != nil {
		t.Fatal(err)
	}
	if st.HasFooter() {
		t.Fatal("plain trace claims a footer")
	}

	fix, six := ft.Index(), st.Index()
	if fix.Records != six.Records || fix.NumBlocks() != six.NumBlocks() {
		t.Fatalf("footer index %+v != scan index %+v", fix, six)
	}
	for i := range fix.Offsets {
		if fix.Offsets[i] != six.Offsets[i] || fix.Counts[i] != six.Counts[i] {
			t.Fatalf("block %d: footer (%d,%d) != scan (%d,%d)",
				i, fix.Offsets[i], fix.Counts[i], six.Offsets[i], six.Counts[i])
		}
	}
	if ft.Records() != int64(len(recs)) {
		t.Fatalf("Records() = %d, want %d", ft.Records(), len(recs))
	}
}

// TestIndexedSourceRoundTrip: a full-range Source yields exactly the
// serially decoded records, header included.
func TestIndexedSourceRoundTrip(t *testing.T) {
	h, recs := sampleRecords(t)
	for _, data := range [][]byte{
		encodeIndexed(t, &h, recs, 2),
		encodeBinary(t, &h, recs, 2),
	} {
		tr, err := NewIndexedBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		src := tr.Source(0, tr.NumBlocks(), DecodeOptions{})
		gh, err := src.Header()
		if err != nil || gh != h || !src.HasHeader() {
			t.Fatalf("header = %+v err=%v hasHdr=%v", gh, err, src.HasHeader())
		}
		got, err := ReadSource(src)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(recs) {
			t.Fatalf("got %d records, want %d", len(got), len(recs))
		}
		for i := range got {
			if !got[i].Equal(&recs[i]) {
				t.Fatalf("record %d = %v, want %v", i, &got[i], &recs[i])
			}
		}
	}
}

// TestShardRangesPartition: shard ranges are a disjoint contiguous cover
// of all blocks, and concatenating the shard sources reproduces the trace.
func TestShardRangesPartition(t *testing.T) {
	h, recs := sampleRecords(t)
	data := encodeIndexed(t, &h, recs, 1) // one record per block
	tr, err := NewIndexedBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3, len(recs), len(recs) + 5} {
		ranges := tr.ShardRanges(n)
		if len(ranges) == 0 || len(ranges) > n {
			t.Fatalf("n=%d: %d ranges", n, len(ranges))
		}
		next := 0
		var got []Record
		for _, r := range ranges {
			if r[0] != next || r[1] <= r[0] {
				t.Fatalf("n=%d: bad range %v (want lo=%d)", n, r, next)
			}
			next = r[1]
			part, err := ReadSource(tr.Source(r[0], r[1], DecodeOptions{}))
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, part...)
		}
		if next != tr.NumBlocks() {
			t.Fatalf("n=%d: ranges end at %d, want %d", n, next, tr.NumBlocks())
		}
		if len(got) != len(recs) {
			t.Fatalf("n=%d: got %d records, want %d", n, len(got), len(recs))
		}
		for i := range got {
			if !got[i].Equal(&recs[i]) {
				t.Fatalf("n=%d: record %d = %v, want %v", n, i, &got[i], &recs[i])
			}
		}
	}
}

// TestIndexedDamagedFooter: a corrupted footer body is never a silent
// wrong index — the footer is discarded, FooterErr records why, and the
// index is rebuilt by a frame scan with identical contents.
func TestIndexedDamagedFooter(t *testing.T) {
	h, recs := sampleRecords(t)
	clean := encodeIndexed(t, &h, recs, 2)
	want, err := NewIndexedBytes(clean)
	if err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), clean...)
	// Flip a bit inside the footer body (just before the trailer's
	// footerLen field), leaving the trailer magic intact.
	data[len(data)-trailerLen-2] ^= 0x01
	tr, err := NewIndexedBytes(data)
	if err != nil {
		t.Fatalf("damaged footer did not fall back to a scan: %v", err)
	}
	if tr.HasFooter() {
		t.Fatal("damaged footer accepted as a footer")
	}
	if tr.FooterErr() == nil {
		t.Fatal("fallback left no FooterErr")
	}
	wix, gix := want.Index(), tr.Index()
	if gix.Records != wix.Records || gix.NumBlocks() != wix.NumBlocks() {
		t.Fatalf("scan index %+v != footer index %+v", gix, wix)
	}
	for i := range wix.Offsets {
		if gix.Offsets[i] != wix.Offsets[i] || gix.Counts[i] != wix.Counts[i] {
			t.Fatalf("block %d: scan (%d,%d) != footer (%d,%d)",
				i, gix.Offsets[i], gix.Counts[i], wix.Offsets[i], wix.Counts[i])
		}
	}
	got, err := ReadSource(tr.Source(0, tr.NumBlocks(), DecodeOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
}

// TestSerialReaderAuxDamage: the serial reader reads every record of a
// trace whose footer block is damaged or torn, recording the damage out
// of band through AuxDamage — in strict mode, with no bad lines charged.
func TestSerialReaderAuxDamage(t *testing.T) {
	h, recs := sampleRecords(t)
	clean := encodeIndexed(t, &h, recs, 2)
	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"bad-footer-crc", func(b []byte) []byte {
			b[len(b)-trailerLen-2] ^= 0x01
			return b
		}},
		{"torn-footer", func(b []byte) []byte {
			return b[:len(b)-trailerLen-4]
		}},
		{"truncated-trailer", func(b []byte) []byte {
			return b[:len(b)-3]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mut(append([]byte(nil), clean...))
			rd := NewBinaryReader(bytes.NewReader(data))
			got, err := rd.ReadAll()
			if err != nil {
				t.Fatalf("strict read with damaged footer: %v", err)
			}
			if len(got) != len(recs) {
				t.Fatalf("got %d records, want %d", len(got), len(recs))
			}
			if rd.AuxDamage() == nil {
				t.Fatal("no AuxDamage recorded")
			}
			if rd.BadLines() != 0 {
				t.Fatalf("BadLines = %d, want 0 (aux damage is out of band)", rd.BadLines())
			}

			// Parallel decode keeps the same no-error semantics.
			_, _, pgot, err := DecodeBytes(data, DecodeOptions{}, 4)
			if err != nil {
				t.Fatalf("parallel decode with damaged footer: %v", err)
			}
			if len(pgot) != len(recs) {
				t.Fatalf("parallel got %d records, want %d", len(pgot), len(recs))
			}
		})
	}
}

// TestIndexedRejectsText: indexed access requires the binary container.
func TestIndexedRejectsText(t *testing.T) {
	if _, err := NewIndexedBytes([]byte(sampleTrace)); err == nil {
		t.Fatal("text trace accepted for indexed access")
	}
}

// TestOpenIndexedFile: the mmap path agrees with the in-memory path.
func TestOpenIndexedFile(t *testing.T) {
	h, recs := sampleRecords(t)
	data := encodeIndexed(t, &h, recs, 2)
	path := filepath.Join(t.TempDir(), "trace.glb")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if tr.Bytes() != int64(len(data)) || tr.Records() != int64(len(recs)) || !tr.HasFooter() {
		t.Fatalf("bytes=%d records=%d footer=%v", tr.Bytes(), tr.Records(), tr.HasFooter())
	}
	got, err := ReadSource(tr.Source(0, tr.NumBlocks(), DecodeOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil { // double Close is a no-op
		t.Fatal(err)
	}
}

// TestIndexedSourceLenient: a damaged block inside a shard is skipped in
// lenient mode with the block ordinal reported, and fails strict mode with
// the same ordinal.
func TestIndexedSourceLenient(t *testing.T) {
	h, recs := sampleRecords(t)
	data := encodeIndexed(t, &h, recs, 1)
	tr, err := NewIndexedBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	// Damage the payload of the third data block.
	ix := tr.Index()
	off := ix.Offsets[2]
	data[int(off)+6] ^= 0xff

	var lines []int
	src := tr.Source(0, tr.NumBlocks(), DecodeOptions{
		Mode:    Lenient,
		OnError: func(line int, _ string, _ error) { lines = append(lines, line) },
	})
	got, err := ReadSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs)-1 || src.BadLines() != 1 {
		t.Fatalf("lenient: got %d records (bad=%d), want %d with 1 bad", len(got), src.BadLines(), len(recs)-1)
	}
	if len(lines) != 1 || lines[0] != 3 {
		t.Fatalf("OnError lines = %v, want [3]", lines)
	}

	strict := tr.Source(0, tr.NumBlocks(), DecodeOptions{})
	if _, err := ReadSource(strict); err == nil || !strings.Contains(err.Error(), "3") {
		t.Fatalf("strict error = %v, want block-3 failure", err)
	}
}
