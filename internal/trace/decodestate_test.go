package trace

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"tracedst/internal/ctype"
	"tracedst/internal/telemetry"
)

// raceEnabled is set under the race detector, which makes sync.Pool drop
// a random share of what it is given: exact reuse counts do not hold.
var raceEnabled bool

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
}

// decoders returns a decoder over the indexed trace data for each of
// BinaryReader and IndexedTrace.Source.
func decoders(t *testing.T, data []byte) []decoder {
	tr, err := NewIndexedBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	return []decoder{
		{"BinaryReader", func() RecordSource { return NewBinaryReader(bytes.NewReader(data)) }},
		{"IndexedTrace.Source", func() RecordSource { return tr.Source(0, tr.NumBlocks(), DecodeOptions{}) }},
	}
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
// records: its memory went back to the pool cleared, holding no record's
// strings.
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
// once through both decoders, each stream taking and returning a pooled
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
				d := ds[k][(g+r/len(data))%2]
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

// heapAllocBytes reads the cumulative bytes allocated on the heap.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestSecondStreamReusesState: a stream decoded after another has ended
// reuses its record buffer, payload buffer, slot table and intern tables,
// so it allocates less than one block's record buffer — the reader itself,
// its read buffer and one string and path per distinct spelling.
func TestSecondStreamReusesState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop states at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	data := boundedTrace(t, 4*DefaultBlockRecords)
	limit := uint64(DefaultBlockRecords * unsafe.Sizeof(Record{}))
	for _, d := range decoders(t, data) {
		exhaust(t, d.open())
		before := heapAllocBytes()
		exhaust(t, d.open())
		got := heapAllocBytes() - before
		t.Logf("%s: the second stream allocated %d bytes", d.name, got)
		if got >= limit {
			t.Errorf("%s: the second stream allocated %d bytes, want < %d (one block's records)", d.name, got, limit)
		}
	}
}

// dropIdleStates empties lastState and the pool, so the next stream makes
// a state.
func dropIdleStates() {
	lastState.Store(nil)
	runtime.GC() // two collections empty the pool
	runtime.GC()
}

// TestDecodeStatesCounter: trace.decode.states counts the states made
// because none could be recycled; sequential streams in one goroutine
// make one between them.
func TestDecodeStatesCounter(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop states at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	dropIdleStates()
	states := telemetry.Default().Counter("trace.decode.states")
	before := states.Value()
	ds := decoders(t, boundedTrace(t, 2*DefaultBlockRecords))
	for i := 0; i < 20; i++ {
		exhaust(t, ds[i%2].open())
	}
	if got := states.Value() - before; got != 1 {
		t.Errorf("20 sequential streams made %d decode states, want 1", got)
	}
}

// TestStreamOnOtherPReusesState: a stream decoded on another goroutine
// while the goroutine that ended the stream before it still holds its P,
// so on the other P, reuses that stream's state and makes none. A state
// kept only in sync.Pool goes to the releasing P's private slot, which the
// other P cannot take.
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
