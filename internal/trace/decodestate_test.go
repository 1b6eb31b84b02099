package trace

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"tracedst/internal/ctype"
	"tracedst/internal/telemetry"
)

// respelled is decodeFixture with k appended to every name and 1000·k
// added to every subscript: the same shapes, other spellings.
func respelled(k int) []Record {
	recs := decodeFixture()
	for i := range recs {
		r := &recs[i]
		r.Func = fmt.Sprint(r.Func, k)
		if r.HasSym {
			r.Var.Root = fmt.Sprint(r.Var.Root, k)
			r.Var.Path = r.Var.Path.Clone()
			for j := range r.Var.Path {
				if r.Var.Path[j].IsIndex() {
					r.Var.Path[j].Index += int64(1000 * k)
				}
			}
		}
	}
	return recs
}

// decoder opens streams over one trace through one decoder that takes a
// recycled decode state.
type decoder struct {
	name string
	open func() RecordSource
	// readBuf is what a stream allocates for its input buffer, which is
	// per stream.
	readBuf int
}

// decoders returns a decoder over the indexed trace data for each of
// BinaryReader, IndexedTrace.Source and, over the same records as text,
// Reader.
func decoders(t *testing.T, data []byte) []decoder {
	tr, err := NewIndexedBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	text := textOf(t, tr)
	return []decoder{
		{"BinaryReader", func() RecordSource { return NewBinaryReader(bytes.NewReader(data)) }, 256 << 10},
		{"IndexedTrace.Source", func() RecordSource { return tr.Source(0, tr.NumBlocks(), DecodeOptions{}) }, 0},
		{"Reader", func() RecordSource { return NewReader(bytes.NewReader(text)) }, 64 << 10},
	}
}

// textOf renders an indexed trace's records as text, through a decoder of
// its own rather than a recycled state. A block that fails to decode
// becomes one line that does not parse, so damage stays damage.
func textOf(t *testing.T, tr *IndexedTrace) []byte {
	dec := blockDecoder{intern: NewInterner()}
	var recs []Record
	var text []byte
	for i := 0; i < tr.NumBlocks(); i++ {
		framed, n, _, err := tr.frameAt(i)
		if err != nil {
			t.Fatal(err)
		}
		if recs, err = dec.checkAndDecode(framed, n, recs[:0]); err != nil {
			text = append(text, "?? damaged block\n"...)
			continue
		}
		for j := range recs {
			text = append(recs[j].AppendText(text), '\n')
		}
	}
	return text
}

// drain decodes src to its end and returns copies of its records.
func drain(t *testing.T, src RecordSource) []Record {
	t.Helper()
	recs, err := ReadSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// exhaust decodes src to its end, keeping nothing.
func exhaust(t *testing.T, src RecordSource) {
	t.Helper()
	for {
		if _, err := src.NextBatch(); err == io.EOF {
			return
		} else if err != nil {
			t.Fatal(err)
		}
	}
}

func checkRecords(t *testing.T, name string, got, want []Record) {
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

// TestRecycledStateKeepsRecords: records materialized from one stream —
// by ReadAll or by copying its batches — still equal a fresh decode of
// their trace after many streams over another trace have decoded through
// the recycled state, paths included.
func TestRecycledStateKeepsRecords(t *testing.T) {
	dataA := encodeIndexed(t, nil, decodeFixture(), 100)
	wantB := respelled(1)
	dataB := encodeIndexed(t, nil, wantB, 100)

	kept := map[string][]Record{}
	all, err := NewBinaryReader(bytes.NewReader(dataA)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	kept["ReadAll"] = all
	for _, d := range decoders(t, dataA) {
		kept[d.name] = drain(t, d.open())
	}
	for i := 0; i < 20; i++ {
		for _, d := range decoders(t, dataB) {
			checkRecords(t, fmt.Sprintf("stream %d over B through %s", i, d.name), drain(t, d.open()), wantB)
		}
	}
	fresh, err := NewBinaryReader(bytes.NewReader(dataA)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, "fresh decode of A", fresh, decodeFixture())
	for name, recs := range kept {
		checkRecords(t, "A through "+name+" after 20 streams over B", recs, fresh)
	}
}

// TestEndedStreamBatchReadsZero: once a stream has ended, at its clean end
// or at a decoding error, the last batch it handed out reads as zero
// records: its memory went back to the idle list cleared.
func TestEndedStreamBatchReadsZero(t *testing.T) {
	recs := decodeFixture()[:1000]
	clean := encodeIndexed(t, nil, recs, 100)
	// One flipped byte inside the last data block's payload fails its
	// CRC; strict decoding ends the stream with the error there.
	damaged := bytes.Clone(clean)
	tr, err := NewIndexedBytes(clean)
	if err != nil {
		t.Fatal(err)
	}
	damaged[tr.Index().Offsets[tr.NumBlocks()-1]+12] ^= 1

	for _, c := range []struct {
		name    string
		data    []byte
		wantErr bool
	}{{"eof", clean, false}, {"error", damaged, true}} {
		for _, d := range decoders(t, c.data) {
			src := d.open()
			var last []Record
			var err error
			for {
				var batch []Record
				if batch, err = src.NextBatch(); err != nil {
					break
				}
				last = batch
			}
			if (err != io.EOF) != c.wantErr {
				t.Fatalf("%s/%s: stream ended with %v", c.name, d.name, err)
			}
			if len(last) == 0 {
				t.Fatalf("%s/%s: no batch before the end", c.name, d.name)
			}
			for i := range last {
				if !reflect.ValueOf(last[i]).IsZero() {
					t.Fatalf("%s/%s: record %d of the last batch after the end = %v, want zero", c.name, d.name, i, &last[i])
				}
			}
		}
	}
}

// TestEndedStreamReleasesOnce: calls after a stream's end return its
// sticky result and give nothing back again, so two streams opened next
// never share a state — the second one's decode leaves the first one's
// batch as it was.
func TestEndedStreamReleasesOnce(t *testing.T) {
	dataA := encodeIndexed(t, nil, decodeFixture()[:1000], 100)
	dataB := encodeIndexed(t, nil, respelled(1)[:1000], 100)
	as, bs := decoders(t, dataA), decoders(t, dataB)
	for i := range as {
		src := as[i].open()
		exhaust(t, src)
		for j := 0; j < 3; j++ {
			if _, err := src.NextBatch(); err != io.EOF {
				t.Fatalf("%s: NextBatch after the end = %v, want io.EOF", as[i].name, err)
			}
		}
		a, b := as[i].open(), bs[i].open()
		batchA, err := a.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(batchA)
		if _, err := b.NextBatch(); err != nil {
			t.Fatal(err)
		}
		checkRecords(t, as[i].name+": a batch after another stream's first decode", batchA, want)
	}
}

// TestRecycledStateConcurrent: goroutines decoding different traces at
// once through every decoder, each stream taking and returning a recycled
// state, see exactly their own trace's records.
func TestRecycledStateConcurrent(t *testing.T) {
	const goroutines, rounds = 8, 20
	var want [][]Record
	var data [][]byte
	for k := 0; k < 4; k++ {
		recs := respelled(k)[:2000]
		want = append(want, recs)
		data = append(data, encodeIndexed(t, nil, recs, 100))
	}
	var ds [][]decoder
	for _, d := range data {
		ds = append(ds, decoders(t, d))
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := (g + r) % len(data)
				d := ds[k][(g+r/len(data))%len(ds[k])]
				src := d.open()
				off := 0
				for {
					batch, err := src.NextBatch()
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Errorf("goroutine %d round %d (%s): %v", g, r, d.name, err)
						return
					}
					for i := range batch {
						if off+i >= len(want[k]) || !batch[i].Equal(&want[k][off+i]) {
							t.Errorf("goroutine %d round %d (%s): record %d = %v, want trace %d's", g, r, d.name, off+i, &batch[i], k)
							return
						}
					}
					off += len(batch)
				}
				if off != len(want[k]) {
					t.Errorf("goroutine %d round %d (%s): %d records, want %d", g, r, d.name, off, len(want[k]))
				}
			}
		}()
	}
	wg.Wait()
}

// boundedTrace is a multi-block indexed trace over a population of 256
// spellings, as a matrix swept again and again gives.
func boundedTrace(t *testing.T, n int) []byte {
	var recs []Record
	for i := 0; i < n; i++ {
		recs = append(recs, Record{Op: Load, Addr: uint64(0x601000 + 8*(i%256)), Size: 8, Func: "kernel",
			HasSym: true, Vis: Global, Aggregate: true,
			Var: ctype.AccessExpr{Root: "m", Path: ctype.Path{{Index: int64(i % 16)}, {Index: int64(i / 16 % 16)}}}})
	}
	return encodeIndexed(t, nil, recs, 0)
}

// heapAllocBytes reads the cumulative bytes allocated on the heap, exactly:
// reading the memory statistics flushes every P's allocation cache.
func heapAllocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestSecondStreamReusesState: a stream decoded after another over the
// same trace has ended reuses its record buffer, payload buffer, slot
// table and intern tables, so it makes no spelling, and allocates only
// its input buffer and a few small objects: the reader or source itself.
func TestSecondStreamReusesState(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	spellings := telemetry.Default().Counter("trace.decode.spellings")
	data := boundedTrace(t, 4*DefaultBlockRecords)
	const small = 1 << 10
	for _, d := range decoders(t, data) {
		exhaust(t, d.open())
		before, made := heapAllocBytes(), spellings.Value()
		exhaust(t, d.open())
		got := heapAllocBytes() - before
		t.Logf("%s: the second stream allocated %d bytes", d.name, got)
		if made := spellings.Value() - made; made != 0 {
			t.Errorf("%s: the second stream made %d spellings, want 0", d.name, made)
		}
		if limit := uint64(d.readBuf + small); got > limit {
			t.Errorf("%s: the second stream allocated %d bytes, want ≤ %d (its input buffer and %d bytes)", d.name, got, limit, small)
		}
	}
}

// dropIdleStates empties the idle list, so the next stream makes a state.
func dropIdleStates() {
	idleStates.Lock()
	clear(idleStates.list)
	idleStates.list = idleStates.list[:0]
	idleStates.Unlock()
}

// TestDecodeStatesCounter: trace.decode.states counts the states made
// because none could be recycled; sequential streams in one goroutine
// make one between them.
func TestDecodeStatesCounter(t *testing.T) {
	dropIdleStates()
	states := telemetry.Default().Counter("trace.decode.states")
	before := states.Value()
	ds := decoders(t, boundedTrace(t, 2*DefaultBlockRecords))
	for i := 0; i < 20; i++ {
		exhaust(t, ds[i%len(ds)].open())
	}
	if got := states.Value() - before; got != 1 {
		t.Errorf("20 sequential streams made %d decode states, want 1", got)
	}
}

// TestConcurrentStreamsMakeTwoStates: two streams decoding at once, round
// after round, as glb-sharded's two shards do, make two states in the
// first round and none after: every round finds both on the idle list.
func TestConcurrentStreamsMakeTwoStates(t *testing.T) {
	const rounds = 50
	dropIdleStates()
	states := telemetry.Default().Counter("trace.decode.states")
	before := states.Value()
	ds := decoders(t, boundedTrace(t, 2*DefaultBlockRecords))
	for r := 0; r < rounds; r++ {
		var started, wg sync.WaitGroup
		started.Add(2)
		wg.Add(2)
		for g := 0; g < 2; g++ {
			go func() {
				defer wg.Done()
				src := ds[(r+g)%len(ds)].open()
				_, err := src.NextBatch()
				// Both streams hold a state before either can end.
				started.Done()
				started.Wait()
				for err == nil {
					_, err = src.NextBatch()
				}
				if err != io.EOF {
					t.Errorf("round %d: %v", r, err)
				}
			}()
		}
		wg.Wait()
	}
	if got := states.Value() - before; got != 2 {
		t.Errorf("%d rounds of two concurrent streams made %d decode states, want 2", rounds, got)
	}
}

// TestSpellingsCounter: trace.decode.spellings counts the spellings a
// stream made: a trace's distinct function names and access expressions
// the first time a process decodes it, and none when it decodes it again.
func TestSpellingsCounter(t *testing.T) {
	spellings := telemetry.Default().Counter("trace.decode.spellings")
	for i := range decoders(t, encodeIndexed(t, nil, nil, 0)) {
		// Decoder i decodes a trace no other stream spelled.
		recs := respelled(100 + i)
		funcs, vars := map[string]bool{}, map[string]bool{}
		for j := range recs {
			funcs[recs[j].Func] = true
			if recs[j].HasSym {
				vars[recs[j].Var.String()] = true
			}
		}
		d := decoders(t, encodeIndexed(t, nil, recs, 100))[i]
		for stream, want := range []int{len(funcs) + len(vars), 0} {
			before := spellings.Value()
			exhaust(t, d.open())
			if got := spellings.Value() - before; got != int64(want) {
				t.Errorf("%s: stream %d made %d spellings, want %d", d.name, stream, got, want)
			}
		}
	}
}

// TestStreamOnOtherPReusesState: a stream decoded on another goroutine
// while the goroutine that ended the stream before it still holds its P,
// so on the other P, reuses that stream's state and makes none.
func TestStreamOnOtherPReusesState(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	states := telemetry.Default().Counter("trace.decode.states")
	for _, d := range decoders(t, boundedTrace(t, 2*DefaultBlockRecords)) {
		dropIdleStates()
		exhaust(t, d.open())
		before := states.Value()
		var done atomic.Bool
		var err error
		go func() {
			defer done.Store(true)
			src := d.open()
			for err == nil {
				_, err = src.NextBatch()
			}
		}()
		for !done.Load() {
			// Spin: this goroutine keeps its P, so the stream runs on the other.
		}
		if err != io.EOF {
			t.Fatalf("%s: %v", d.name, err)
		}
		if got := states.Value() - before; got != 0 {
			t.Errorf("%s: a stream on the other P made %d decode states, want 0", d.name, got)
		}
	}
}

// TestSecondTextValidationReusesState: a Validator batches text input in
// its Reader's decode state, so a second validation of the same text
// trace, which recycles the first one's state, allocates less than one
// batch of records.
func TestSecondTextValidationReusesState(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// validTrace's six records, over and over: more than four batches of a
	// trace with no finding, so every batch is handed on.
	hdr, body, _ := strings.Cut(validTrace, "\n")
	const reps = 4*DefaultBatchRecords/6 + 1
	text := []byte(hdr + "\n" + strings.Repeat(body, reps))
	validate := func() {
		v, err := NewValidator(context.Background(), bytes.NewReader(text), ValidateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		exhaust(t, v)
		if rep, err := v.Finish(); err != nil || rep.Records != 6*reps || !rep.OK() {
			t.Fatalf("validation: %d records, %d errors, err %v", rep.Records, rep.Errors(), err)
		}
	}
	validate()
	before := heapAllocBytes()
	validate()
	got := heapAllocBytes() - before
	batch := uint64(DefaultBatchRecords) * uint64(unsafe.Sizeof(Record{}))
	t.Logf("the second validation allocated %d bytes", got)
	if got >= batch {
		t.Errorf("the second validation allocated %d bytes, want < %d (one batch of records)", got, batch)
	}
}
