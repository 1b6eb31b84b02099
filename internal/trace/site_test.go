package trace

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"tracedst/internal/ctype"
)

// pairedTrace is an indexed trace of 8,192 records over 126 (function,
// variable) spelling pairs — two alternating functions over 63 elements —
// plus function-only records of both functions. Every record brings a
// site of its own.
func pairedTrace(t *testing.T) []byte {
	fns := [2]string{"f", "g"}
	var recs []Record
	for i := 0; i < 2*DefaultBlockRecords; i++ {
		k := i / 2
		r := Record{Op: Load, Addr: uint64(0x601000 + 8*(k%63)), Size: 8, Site: NewSite(fns[i%2], ctype.AccessExpr{})}
		if k%8 != 0 {
			r.HasSym, r.Vis, r.Aggregate = true, Global, true
			r.Site = NewSite(fns[i%2], ctype.AccessExpr{Root: "a", Path: ctype.Path{{Index: int64(k % 63)}}})
		}
		recs = append(recs, r)
	}
	return encodeIndexed(t, nil, recs, 0)
}

// spellingOf is a record's site spelling with its frame and thread, the
// identity sites dedupe on.
func spellingOf(r *Record) string {
	return fmt.Sprint(r.Site.Func(), " ", r.Site.Var().String(), " ", r.Site.Frame(), " ", r.Site.Thread())
}

// siteCensus decodes src to its end and returns how many distinct site
// pointers and spellings its records carry, failing if one spelling came
// with two sites.
func siteCensus(t *testing.T, name string, src RecordSource) (map[*Site]bool, int) {
	t.Helper()
	sites, bySpelling := map[*Site]bool{}, map[string]*Site{}
	for {
		batch, err := src.NextBatch()
		if err != nil {
			break
		}
		for i := range batch {
			r := &batch[i]
			sites[r.Site] = true
			key := spellingOf(r)
			if s, ok := bySpelling[key]; ok && s != r.Site {
				t.Fatalf("%s: spelling %q came with two sites", name, key)
			}
			bySpelling[key] = r.Site
		}
	}
	return sites, len(bySpelling)
}

// TestDecoderSharesSites: every decoder hands out one site per (function,
// variable) spelling pair, and a second stream of the same trace decodes
// through the recycled state to the same sites, making none.
func TestDecoderSharesSites(t *testing.T) {
	for _, d := range decoders(t, pairedTrace(t)) {
		first, spellings := siteCensus(t, d.name, d.open())
		if spellings != 128 || len(first) != spellings {
			t.Errorf("%s: %d sites for %d spellings, want 128 of each (126 pairs, 2 functions alone)", d.name, len(first), spellings)
		}
		second, _ := siteCensus(t, d.name, d.open())
		for s := range second {
			if !first[s] {
				t.Errorf("%s: the second stream made site %v", d.name, s)
				break
			}
		}
	}
}

// TestSecondStreamMakesNoSite bounds a second stream's allocation where
// its first stream made a site per pair: the sites stay with the state,
// so the second stream allocates no more than TestSecondStreamReusesState
// allows.
func TestSecondStreamMakesNoSite(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	data := pairedTrace(t)
	for _, d := range decoders(t, data) {
		dropIdleStates()
		exhaust(t, d.open())
		before := heapAllocBytes()
		exhaust(t, d.open())
		if got := heapAllocBytes() - before; got > 1<<10 {
			t.Errorf("%s: the second stream allocated %d bytes, want ≤ 1024", d.name, got)
		}
	}
}

// TestAlternatingFunctionsShareSites: a block whose records alternate two
// functions over one variable takes two sites, not one per record, on a
// decoder whose tables are new — in binary, where each record misses its
// slot's cached pair, and in text.
func TestAlternatingFunctionsShareSites(t *testing.T) {
	sites := [2]*Site{
		NewSite("f", ctype.AccessExpr{Root: "v"}),
		NewSite("g", ctype.AccessExpr{Root: "v"}),
	}
	var recs []Record
	var text []byte
	for i := 0; i < DefaultBlockRecords; i++ {
		recs = append(recs, Record{Op: Load, Addr: 0x601000, Size: 4, HasSym: true, Vis: Global, Site: sites[i%2]})
		text = append(recs[i].AppendText(text), '\n')
	}
	tr, err := NewIndexedBytes(encodeIndexed(t, nil, recs, 0))
	if err != nil {
		t.Fatal(err)
	}
	framed, n, _, err := tr.frameAt(0)
	if err != nil {
		t.Fatal(err)
	}
	dec := blockDecoder{intern: NewInterner()}
	got, err := dec.checkAndDecode(framed, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInterner()
	for _, line := range bytes.SplitAfter(text[:len(text)-1], []byte("\n")) {
		r, err := in.ParseRecord(line)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
	}
	distinct := map[*Site]bool{}
	for i := range got {
		distinct[got[i].Site] = true
		if want := sites[i%2]; !got[i].Equal(&recs[i%len(recs)]) || got[i].Site.Func() != want.Func() {
			t.Fatalf("record %d = %v, want %v", i, &got[i], &recs[i%len(recs)])
		}
	}
	if len(distinct) != 4 {
		t.Errorf("%d records took %d sites, want 2 from each decoder", len(got), len(distinct))
	}
}

// framedRecords are 64 locals of one function and variable spelling that
// take turns in two frames on two threads — each record differs from the
// one before it in frame, and every other one in thread — then a global
// of the same spelling.
func framedRecords() []Record {
	v := ctype.AccessExpr{Root: "n"}
	var recs []Record
	for i := 0; i < 64; i++ {
		frame, thread := int32(i%2), int32(1+i/2%2)
		recs = append(recs, Record{Op: Load, Addr: 0x7ff0004b0 - 0x20*uint64(frame), Size: 4,
			HasSym: true, Vis: Local, Site: NewLocalSite("fact", v, frame, thread)})
	}
	return append(recs, Record{Op: Store, Addr: 0x601040, Size: 4, HasSym: true, Vis: Global, Site: NewSite("fact", v)})
}

// checkFramed fails unless got holds framedRecords' frames and threads,
// record for record, through sites that name each spelling, frame and
// thread once.
func checkFramed(t *testing.T, name string, got []Record) {
	t.Helper()
	want := framedRecords()
	checkRecords(t, name, got, want)
	sites := map[*Site]bool{}
	for i := range got {
		if g, w := got[i].Site, want[i].Site; g.Frame() != w.Frame() || g.Thread() != w.Thread() {
			t.Fatalf("%s: record %d in frame %d on thread %d, want %d and %d", name, i, g.Frame(), g.Thread(), w.Frame(), w.Thread())
		}
		sites[got[i].Site] = true
	}
	if len(sites) != 5 {
		t.Errorf("%s: %d records took %d sites, want 5 (two frames × two threads, and the global)", name, len(got), len(sites))
	}
}

// TestFrameAndThreadRoundTrip: records that share a function and variable
// spelling but differ in frame or thread are not equal, and keep their
// frame and thread through text, .glb (every decoder) and JSON.
func TestFrameAndThreadRoundTrip(t *testing.T) {
	recs := framedRecords()
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if recs[i].Equal(&recs[j]) != (i == j) {
				t.Errorf("Equal(%v, %v) = %v", &recs[i], &recs[j], !(i == j))
			}
		}
	}
	if !recs[0].Equal(&recs[4]) {
		t.Errorf("%v and %v, one frame and thread, differ", &recs[0], &recs[4])
	}
	for _, d := range decoders(t, encodeIndexed(t, nil, recs, 0)) {
		got, err := ReadSource(d.open())
		if err != nil {
			t.Fatal(err)
		}
		checkFramed(t, d.name, got)
	}
	got := make([]Record, len(recs))
	for i := range recs {
		data, err := recs[i].MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if err := got[i].UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
	}
	checkFramed(t, "JSON", dedupeSites(got))
}

// dedupeSites gives records of one spelling, frame and thread one site,
// as a decoder would.
func dedupeSites(recs []Record) []Record {
	bySpelling := map[string]*Site{}
	for i := range recs {
		key := spellingOf(&recs[i])
		if s, ok := bySpelling[key]; ok {
			recs[i].Site = s
		}
		bySpelling[key] = recs[i].Site
	}
	return recs
}

// TestSlotCacheAlternatingFrames: in one .glb block whose variable slot
// alternates frames and threads record by record, the block decoder's
// slot cache hands each record the site of its own frame and thread.
func TestSlotCacheAlternatingFrames(t *testing.T) {
	tr, err := NewIndexedBytes(encodeIndexed(t, nil, framedRecords(), 0))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumBlocks() != 1 {
		t.Fatalf("%d blocks, want 1", tr.NumBlocks())
	}
	framed, n, _, err := tr.frameAt(0)
	if err != nil {
		t.Fatal(err)
	}
	dec := blockDecoder{intern: NewInterner()}
	got, err := dec.checkAndDecode(framed, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkFramed(t, "blockDecoder", got)
}

// TestEqualComparesSpelling: Equal compares what sites name, not which
// site a record holds; a nil site names what an empty one does.
func TestEqualComparesSpelling(t *testing.T) {
	v := ctype.AccessExpr{Root: "a", Path: ctype.Path{{Index: 3}, {Field: "x"}}}
	a := Record{Op: Store, Addr: 0x601040, Size: 4, HasSym: true, Vis: Global, Aggregate: true, Site: NewSite("main", v)}
	b := a
	b.Site = NewSite("main", ctype.AccessExpr{Root: "a", Path: v.Path.Clone()})
	if a.Site == b.Site || !a.Equal(&b) || !b.Equal(&a) {
		t.Errorf("records with two sites of one spelling are not equal")
	}
	for _, other := range []*Site{
		NewSite("other", v),
		NewSite("main", ctype.AccessExpr{Root: "b", Path: v.Path}),
		NewSite("main", ctype.AccessExpr{Root: "a", Path: ctype.Path{{Index: 3}, {Field: "y"}}}),
		nil,
	} {
		c := a
		c.Site = other
		if a.Equal(&c) {
			t.Errorf("%v equals %v", &a, &c)
		}
	}
	var zero Record
	empty := Record{Site: NewSite("", ctype.AccessExpr{})}
	if !zero.Equal(&empty) || !empty.Equal(&zero) {
		t.Errorf("a nil site and an empty one differ")
	}
}

// TestZeroRecord: a zero Record, which holds no site, renders, encodes in
// both formats and validates exactly as a Record with empty inline names
// did.
func TestZeroRecord(t *testing.T) {
	var r Record
	if got, want := r.String(), "\x00 000000000 0 "; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	var text bytes.Buffer
	tw := NewWriter(&text)
	if err := tw.WriteHeader(Header{PID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Write(&r); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, want := text.String(), "START PID 1\n\x00 000000000 0 \n"; got != want {
		t.Errorf("text trace %q, want %q", got, want)
	}
	glb := encodeBinary(t, nil, []Record{r}, 0)
	if want := "\x89GLB1\n\x00\x00\x06\x01\xe8\xdd+h\x01\x00\x03\x00\x00\x00"; string(glb) != want {
		t.Errorf(".glb bytes %q, want %q", glb, want)
	}
	back, err := NewBinaryReader(bytes.NewReader(glb)).ReadAll()
	if err != nil || len(back) != 1 {
		t.Fatalf("decoded %d records, %v", len(back), err)
	}
	if want := (Record{Op: Misc}); !back[0].Equal(&want) {
		t.Errorf("decoded %v, want a Misc record with no names", &back[0])
	}
	rep := ValidateRecords(Header{PID: 1}, true, []Record{r})
	want := "FAIL: 1 records, 0 bad lines, PID 1 — 1 errors, 0 warnings\n" +
		"  error: line 1: [region] address 000000000 outside the data/heap/stack regions\n"
	if got := rep.Summary(); got != want {
		t.Errorf("validation:\n%s\nwant:\n%s", got, want)
	}
}

// TestRecordJSON: a record's JSON form spells its names inline, in the
// field order records kept before sites, and reads back to an equal
// record. JSON written when records carried symbol ids still reads: the
// ids are ignored.
func TestRecordJSON(t *testing.T) {
	r := Record{Op: Load, HasSym: true, Vis: Local, Aggregate: true,
		Size: 4, Addr: 0x7ff000010, Site: NewLocalSite("main", ctype.AccessExpr{Root: "s", Path: ctype.Path{{Index: 1}, {Field: "x"}}}, 1, 1)}
	data, err := r.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	want := `{"Op":76,"HasSym":true,"Vis":76,"Aggregate":true,"Frame":1,"Thread":1,` +
		`"Size":4,"Addr":34342961168,"Func":"main","Var":{"Root":"s","Path":[{"Field":"","Index":1},{"Field":"x","Index":0}]}}`
	if string(data) != want {
		t.Errorf("JSON %s\nwant %s", data, want)
	}
	var back Record
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(&r) {
		t.Errorf("read back %+v, want %+v", back, r)
	}
	withIDs := `{"Op":76,"HasSym":true,"Vis":76,"Aggregate":true,"FuncID":2,"VarID":3,"Frame":1,"Thread":1,` +
		`"Size":4,"Addr":34342961168,"Func":"main","Var":{"Root":"s","Path":[{"Field":"","Index":1},{"Field":"x","Index":0}]}}`
	var old Record
	if err := old.UnmarshalJSON([]byte(withIDs)); err != nil {
		t.Fatal(err)
	}
	if !old.Equal(&r) {
		t.Errorf("read back JSON with ids as %+v, want %+v", old, r)
	}
}

// TestSitesNotCountedAsSpellings: trace.decode.spellings counts names, not
// the sites made of them, so a pair of known names costs no spelling.
func TestSitesNotCountedAsSpellings(t *testing.T) {
	in := NewInterner()
	sites := map[*Site]bool{}
	for _, line := range []string{"L 000601000 4 f GV v", "L 000601000 4 g GV v", "L 000601000 4 f", "S 000601000 4 g GV v"} {
		r, err := in.ParseRecord([]byte(line))
		if err != nil {
			t.Fatal(err)
		}
		sites[r.Site] = true
	}
	if made := in.endStream(); made != 3 || len(sites) != 3 {
		t.Errorf("lines over f, g and v made %d spellings and %d sites, want 3 and 3", made, len(sites))
	}
}
