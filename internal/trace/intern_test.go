package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"io"
	"runtime"
	"strconv"
	"testing"

	"tracedst/internal/ctype"
)

// TestInternTable: every inserted key is found from its bytes across index
// growth and entry-chunk boundaries (past the largest chunk size), absent
// keys are not, ref updates a value in place, and a reset table reuses its
// index and chunks.
func TestInternTable(t *testing.T) {
	tab := internTable[int]{seed: maphash.MakeSeed()}
	const n = 3*maxChunkEntries + 7
	key := func(i int) []byte { return fmt.Appendf(nil, "k%d", i) }
	if tab.ref([]byte("")) != nil {
		t.Fatal("empty table found a key")
	}
	tab.insert("", -1)
	for i := 0; i < n; i++ {
		tab.insert(string(key(i)), i)
	}
	for i := 0; i < n; i++ {
		if v := tab.ref(key(i)); v == nil || *v != i {
			t.Fatalf("ref(%q) = %v, want %d", key(i), v, i)
		}
	}
	if v := tab.ref(nil); v == nil || *v != -1 {
		t.Errorf("ref of the empty key = %v, want -1", v)
	}
	for _, k := range []string{"k", "k-1", fmt.Sprint("k", n), "x0"} {
		if tab.ref([]byte(k)) != nil {
			t.Errorf("absent key %q found", k)
		}
	}
	*tab.ref(key(42)) = 4242
	if v := *tab.ref(key(42)); v != 4242 {
		t.Errorf("after an update through ref: %d, want 4242", v)
	}
	if len(tab.slots) < 2*tab.n {
		t.Errorf("index of %d slots for %d entries: load above one half", len(tab.slots), tab.n)
	}

	// A reset empties the table but keeps its index and chunks: the same
	// number of new keys fills them again in the same order, allocating
	// no chunk, and no old key or value survives.
	slots, chunks := len(tab.slots), len(tab.chunks)
	tab.reset()
	for _, c := range tab.chunks {
		for _, e := range c[:cap(c)] {
			if e != (internEntry[int]{}) {
				t.Fatalf("entry %+v survived the reset", e)
			}
		}
	}
	for i := 0; i <= n; i++ {
		tab.insert(fmt.Sprint("r", i), -i)
	}
	if len(tab.slots) != slots || len(tab.chunks) != chunks {
		t.Errorf("after a reset and %d inserts: %d slots, %d chunks; want the %d and %d kept", n+1, len(tab.slots), len(tab.chunks), slots, chunks)
	}
	for i := 0; i < n; i++ {
		if tab.ref(key(i)) != nil {
			t.Fatalf("key %q found after the reset", key(i))
		}
		if v := tab.ref([]byte(fmt.Sprint("r", i))); v == nil || *v != -i {
			t.Fatalf("ref(r%d) = %v after the reset, want %d", i, v, -i)
		}
	}
}

// TestFullTableStartsOver: a stream that fills a table to
// maxInternedStrings by itself stops interning, so its later new
// spellings are made at each sight; the next stream finds the table full
// of earlier streams' spellings, and its first new spelling empties the
// table and is interned.
func TestFullTableStartsOver(t *testing.T) {
	in := NewInterner()
	var buf []byte
	key := func(i int) []byte {
		buf = strconv.AppendInt(append(buf[:0], 'f'), int64(i), 10)
		return buf
	}
	for i := 0; i < maxInternedStrings; i++ {
		in.internFunc(key(i))
	}
	for i := 0; i < 2; i++ {
		in.internFunc([]byte("late"))
	}
	if in.funcs.ref([]byte("late")) != nil || in.funcs.n != maxInternedStrings {
		t.Fatalf("a table the stream filled alone took a spelling past the cap (%d entries)", in.funcs.n)
	}
	if made := in.endStream(); made != maxInternedStrings+2 {
		t.Errorf("the first stream made %d spellings, want %d", made, maxInternedStrings+2)
	}

	in.internFunc(key(7))
	if in.funcs.n != maxInternedStrings {
		t.Fatalf("a spelling held from the stream before was not found (%d entries)", in.funcs.n)
	}
	in.internFunc([]byte("late"))
	in.internFunc([]byte("late"))
	if in.funcs.n != 1 || in.funcs.ref([]byte("late")) == nil || in.funcs.ref(key(7)) != nil {
		t.Fatalf("the full table did not start over for the next stream: %d entries", in.funcs.n)
	}
	if made := in.endStream(); made != 1 {
		t.Errorf("the second stream made %d spellings, want 1", made)
	}
}

// TestInternerTyped: a spelling interned as a function name is not held as
// a variable, and the reverse; each table holds only its own role.
func TestInternerTyped(t *testing.T) {
	in := NewInterner()
	if s := in.internFunc([]byte("main")); s != "main" {
		t.Fatalf("internFunc = %q", s)
	}
	site, err := in.site([]byte("main"), []byte("grid[1].x"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v := site.Var(); site.Func() != "main" || v.Root != "grid" || !v.Path.Equal(ctype.Path{{Index: 1}, {Field: "x"}}) {
		t.Fatalf("site = %q %+v", site.Func(), v)
	}
	// "main" as a variable is a scalar access expression of its own.
	ms, err := in.site([]byte("main"), []byte("main"), 0, 0)
	if mv := ms.Var(); err != nil || mv.Root != "main" || mv.Path != nil {
		t.Fatalf("site(main, main) = %+v, %v", mv, err)
	}
	if in.funcs.n != 1 || in.vars.n != 2 {
		t.Errorf("funcs holds %d, vars %d; want 1 and 2", in.funcs.n, in.vars.n)
	}
	if _, err := in.site([]byte("main"), []byte("a["), 0, 0); err == nil {
		t.Error("malformed access expression interned")
	}
	if in.vars.n != 2 {
		t.Errorf("a failed parse was interned (vars holds %d)", in.vars.n)
	}
}

// decodeFixture is a trace that exercises the string table every way a
// block uses it: a bounded population repeated across blocks, an array
// walked element by element (each spelling in one or two blocks only), one
// spelling that is both a function and a variable, and locals.
func decodeFixture() []Record {
	var recs []Record
	for i := 0; i < 3000; i++ {
		recs = append(recs,
			Record{Op: Load, Addr: 0x601040 + uint64(8*i), Size: 8, Site: NewSite("walk", ctype.AccessExpr{Root: "grid", Path: ctype.Path{{Index: int64(i)}, {Field: "x"}}}), HasSym: true,
				Vis: Global, Aggregate: true},
			Record{Op: Store, Addr: 0x7ff0001b0, Size: 4, Site: NewLocalSite("main", ctype.AccessExpr{Root: "walk"}, 1, 1), HasSym: true,
				Vis: Local},
			Record{Op: Modify, Addr: 0x601000 + uint64(4*(i%16)), Size: 4, Site: NewSite("walk", ctype.AccessExpr{Root: "hist", Path: ctype.Path{{Index: int64(i % 16)}}}), HasSym: true,
				Vis: Global, Aggregate: true},
			Record{Op: Misc, Addr: 0x7ff000100, Size: 8, Site: NewSite("main", ctype.AccessExpr{})},
		)
	}
	return recs
}

// TestDecodePathsAgree: the serial reader, its block source, the parallel
// decoder and indexed block-range sources decode the fixture to the records
// that were written.
func TestDecodePathsAgree(t *testing.T) {
	want := decodeFixture()
	h := Header{PID: 7}
	data := encodeIndexed(t, &h, want, 100)
	check := func(name string, got []Record) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d records, want %d", name, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(&want[i]) {
				t.Fatalf("%s: record %d = %v, want %v", name, i, &got[i], &want[i])
			}
		}
	}

	recs, err := NewBinaryReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	check("ReadAll", recs)

	var streamed []Record
	src := NewBinaryReader(bytes.NewReader(data))
	for {
		batch, err := src.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, batch...)
	}
	check("NextBatch", streamed)

	_, _, par, err := DecodeBytes(data, DecodeOptions{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	check("DecodeBytes", par)

	tr, err := NewIndexedBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	var sharded []Record
	for _, r := range tr.ShardRanges(3) {
		recs, err := ReadSource(tr.Source(r[0], r[1], DecodeOptions{}))
		if err != nil {
			t.Fatal(err)
		}
		sharded = append(sharded, recs...)
	}
	check("IndexedTrace.Source", sharded)
}

// TestDecodedRecordsOwnTheirStrings: records keep no reference to the
// payload they were decoded from, though the slot table reads the string
// table in place — overwriting the payload afterwards changes nothing.
func TestDecodedRecordsOwnTheirStrings(t *testing.T) {
	want := decodeFixture()[:400]
	data := encodeBinary(t, nil, want, len(want))
	_, _, body, err := parseBinaryPreamble(data)
	if err != nil {
		t.Fatal(err)
	}
	payloadLen, n := binary.Uvarint(body)
	body = body[n:]
	recCount, n := binary.Uvarint(body)
	payload := bytes.Clone(body[n+4 : n+4+int(payloadLen)])
	dec := blockDecoder{intern: NewInterner()}
	got, err := dec.decode(payload, int(recCount), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		payload[i] = 'Z'
	}
	for i := range want {
		if !got[i].Equal(&want[i]) {
			t.Fatalf("record %d = %v after the payload was overwritten, want %v", i, &got[i], &want[i])
		}
	}
}

// TestDecodedPathsIsolated: decoded paths are carved from one slab and
// shared by every record with the same spelling, yet an append to one
// record's path never shows in another's.
func TestDecodedPathsIsolated(t *testing.T) {
	recs, err := NewBinaryReader(bytes.NewReader(encodeBinary(t, nil, decodeFixture(), 0))).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// recs[0] and recs[2] are grid[0].x and hist[0], neighbours in the
	// slab; recs[2] and recs[66] both spell hist[0].
	for _, pair := range [][2]int{{0, 2}, {2, 66}} {
		a, b := &recs[pair[0]], &recs[pair[1]]
		before := b.Site.Var().Path.Clone()
		_ = append(a.Site.Var().Path, ctype.PathElem{Field: "clobber"})
		if !b.Site.Var().Path.Equal(before) {
			t.Errorf("append to record %d's path changed record %d's: %v", pair[0], pair[1], b.Site.Var().Path)
		}
	}
}

// TestBinaryReaderSteadyStateAllocs: once the interner holds a bounded
// population, decoding a block allocates nothing — the slot table, the
// record buffer and the payload buffer are all reused.
func TestBinaryReaderSteadyStateAllocs(t *testing.T) {
	var recs []Record
	for i := 0; i < 60*256; i++ {
		recs = append(recs, Record{Op: Load, Addr: uint64(0x601000 + 8*(i%512)), Size: 8, Site: NewSite("kernel", ctype.AccessExpr{Root: "m", Path: ctype.Path{{Index: int64(i % 32)}, {Index: int64(i / 32 % 16)}}}),
			HasSym: true, Vis: Global, Aggregate: true})
	}
	rd := NewBinaryReader(bytes.NewReader(encodeBinary(t, nil, recs, 256)))
	for i := 0; i < 4; i++ { // the population cycles every two blocks
		if _, err := rd.NextBatch(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := rd.NextBatch(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("NextBatch steady state: %.2f allocations per block, want 0", allocs)
	}
}

// TestBlockDecodeDistinctAllocs pins the cost of a population that never
// repeats: one allocation per distinct spelling (its string) plus the
// amortized growth of the tables, the path slab and the record buffer.
func TestBlockDecodeDistinctAllocs(t *testing.T) {
	const n = 8192
	var recs []Record
	for i := 0; i < n; i++ {
		recs = append(recs, Record{Op: Load, Addr: uint64(0x601000 + 8*i), Size: 8, Site: NewSite("walk", ctype.AccessExpr{Root: "grid", Path: ctype.Path{{Index: int64(i)}, {Field: "x"}}}),
			HasSym: true, Vis: Global, Aggregate: true})
	}
	data := encodeBinary(t, nil, recs, 0)
	allocs := testing.AllocsPerRun(5, func() {
		rd := NewBinaryReader(bytes.NewReader(data))
		if _, err := rd.NextBatch(); err != nil {
			t.Fatal(err)
		}
		if _, err := rd.NextBatch(); err != nil {
			t.Fatal(err)
		}
	})
	// The fixed overhead (reader, buffers, the first chunks) and each
	// table's doubling add about 70.
	if limit := float64(n + 128); allocs > limit {
		t.Errorf("decoding %d distinct spellings: %.0f allocations, want ≤ %.0f", n, allocs, limit)
	}
}

// TestBinaryWriterSteadyStateAllocs: a writer allocates a spelling's key
// once, not once per block that uses it; past the first blocks only the
// block index grows.
func TestBinaryWriterSteadyStateAllocs(t *testing.T) {
	recs := decodeFixture()[:1024]
	for i := range recs { // a bounded population
		if recs[i].Site.Var().Root == "grid" {
			recs[i].Site = NewSite(recs[i].Site.Func(), ctype.AccessExpr{Root: "grid", Path: ctype.Path{{Index: int64(i % 64)}, {Field: "x"}}})
		}
	}
	wr := NewBinaryWriter(io.Discard)
	wr.SetBlockRecords(128)
	write := func() {
		for i := range recs {
			if err := wr.Write(&recs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	write()
	blocks := len(recs) / 128
	allocs := testing.AllocsPerRun(20, write)
	if allocs > float64(blocks)/4 {
		t.Errorf("BinaryWriter steady state: %.2f allocations per %d blocks, want ≤ %d", allocs, blocks, blocks/4)
	}
}

// BenchmarkBinaryDecode decodes 64K records of two populations, each
// operation through a new reader: bounded (a 16x16 matrix swept
// repeatedly) and walk (an array of structures walked once, so nearly
// every spelling is new). reopen decodes one block of the bounded
// population per operation, so what a stream costs to set up, which a
// service pays per upload, is most of its cost. fresh takes 65 traces in
// turn, each of 16K access expressions no other trace spells: one trace
// more than a full table holds, so by the time a trace comes round again
// its spellings have been dropped, and no stream finds an access
// expression an earlier stream made. Each case starts with no idle decode
// state and reports retained-B, what the live heap grew by over the loop:
// the idle states and what their tables keep.
func BenchmarkBinaryDecode(b *testing.B) {
	bounded := func(i int) ctype.Path { return ctype.Path{{Index: int64(i % 16)}, {Index: int64(i / 16 % 16)}} }
	for _, pop := range []struct {
		name   string
		n      int
		path   func(i int) ctype.Path
		traces int
	}{
		{"bounded", 1 << 16, bounded, 1},
		{"walk", 1 << 16, func(i int) ctype.Path { return ctype.Path{{Index: int64(i / 2)}, {Field: [2]string{"x", "y"}[i%2]}} }, 1},
		{"reopen", DefaultBlockRecords, bounded, 1},
		{"fresh", 1 << 14, func(i int) ctype.Path { return ctype.Path{{Index: int64(i)}} }, maxInternedStrings>>14 + 1},
	} {
		n := pop.n
		b.Run(pop.name, func(b *testing.B) {
			var data [][]byte
			for k := 0; k < pop.traces; k++ {
				var buf bytes.Buffer
				wr := NewBinaryWriter(&buf)
				for i := 0; i < n; i++ {
					r := Record{Op: Load, Addr: uint64(0x601000 + 8*i), Size: 8, Site: NewSite(fmt.Sprint("kernel", k), ctype.AccessExpr{Root: fmt.Sprint("a", k), Path: pop.path(i)}),
						HasSym: true, Vis: Global, Aggregate: true}
					if err := wr.Write(&r); err != nil {
						b.Fatal(err)
					}
				}
				if err := wr.Flush(); err != nil {
					b.Fatal(err)
				}
				data = append(data, buf.Bytes())
			}
			dropIdleStates()
			base := liveHeap()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := NewBinaryReader(bytes.NewReader(data[i%len(data)]))
				for {
					if _, err := src.NextBatch(); err == io.EOF {
						break
					} else if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "records/s")
			b.ReportMetric(float64(int64(liveHeap())-int64(base)), "retained-B")
			runtime.KeepAlive(data)
		})
	}
}

// liveHeap returns the bytes of heap objects left after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
