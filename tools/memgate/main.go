// Command memgate is the bounded-memory CI gate for the streaming
// pipeline. It generates a synthetic .glb trace several times larger than
// a Go soft memory limit, simulates it twice — once materialized (the
// reference), once through the streaming RecordSource path with
// debug.SetMemoryLimit clamped far below the trace size — and fails
// unless the streaming run (a) renders the byte-identical cache report
// and (b) keeps its sampled live heap under the limit. A materializing
// regression in any stage of the streaming path (decode, batching,
// simulate) blows straight through the limit and trips the gate:
//
//	go run ./tools/memgate                  # defaults: 16 MiB limit, 4x trace
//	go run ./tools/memgate -limit-mb 8 -ratio 6 -v
//
// Exit status: 0 PASS, 1 FAIL, 2 usage/setup error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"

	"tracedst/internal/cache"
	"tracedst/internal/cliutil"
	"tracedst/internal/ctype"
	"tracedst/internal/dinero"
	"tracedst/internal/trace"
)

// gateConfig is the simulated cache: the paper's 64-way round-robin
// geometry, small enough that the simulator's own state is noise next to
// the memory limit.
var gateConfig = cache.Config{
	Name: "rr-32k-64w", Size: 32768, BlockSize: 32, Assoc: 64, Repl: cache.ReplRoundRobin,
}

func main() {
	limitMB := flag.Int64("limit-mb", 16, "soft memory limit (MiB) applied to the streaming run via debug.SetMemoryLimit")
	ratio := flag.Float64("ratio", 4, "required trace-file size as a multiple of the memory limit")
	block := flag.Int("block", 0, "records per .glb block (0 = encoder default)")
	keep := flag.Bool("keep", false, "keep the generated trace file (prints its path)")
	verbose := flag.Bool("v", false, "log generation and sampling progress")
	flag.Parse()
	if *limitMB <= 0 || *ratio < 1 {
		fmt.Fprintln(os.Stderr, "memgate: -limit-mb must be positive and -ratio >= 1")
		os.Exit(2)
	}
	limit := *limitMB << 20
	target := int64(float64(limit) * *ratio)

	dir, err := os.MkdirTemp("", "memgate")
	if err != nil {
		fatal(err)
	}
	path := filepath.Join(dir, "big.glb")
	if *keep {
		fmt.Printf("memgate: trace file %s\n", path)
	} else {
		defer os.RemoveAll(dir)
	}

	nrecs, size, err := generate(path, target, *block)
	if err != nil {
		fatal(err)
	}
	if *verbose {
		fmt.Printf("memgate: generated %d records, %d bytes (%.1fx the %d MiB limit)\n",
			nrecs, size, float64(size)/float64(limit), *limitMB)
	}
	if size < target {
		fatal(fmt.Errorf("generated trace is %d bytes, below the %d-byte target", size, target))
	}

	// Materializing reference, unrestricted: the whole record slice lives
	// on the heap at once. Its report is the ground truth the streaming
	// run must reproduce byte for byte.
	_, _, recs, err := cliutil.LoadTraceOpts(path, trace.DecodeOptions{})
	if err != nil {
		fatal(err)
	}
	if int64(len(recs)) != nrecs {
		fatal(fmt.Errorf("materialized %d records, wrote %d", len(recs), nrecs))
	}
	ref, err := dinero.New(dinero.Options{L1: gateConfig})
	if err != nil {
		fatal(err)
	}
	ref.Process(recs)
	want := ref.Report()
	recs, ref = nil, nil
	_ = recs

	// Streaming run under the clamp. HeapAlloc is sampled every few
	// batches; its peak is the gate's memory verdict.
	runtime.GC()
	prev := debug.SetMemoryLimit(limit)
	defer debug.SetMemoryLimit(prev)

	sim, err := dinero.New(dinero.Options{L1: gateConfig})
	if err != nil {
		fatal(err)
	}
	ts, err := cliutil.OpenTraceSource(path, trace.DecodeOptions{})
	if err != nil {
		fatal(err)
	}
	var peak uint64
	var ms runtime.MemStats
	batches := 0
	for {
		batch, berr := ts.NextBatch()
		if berr == io.EOF {
			break
		}
		if berr != nil {
			fatal(berr)
		}
		sim.Process(batch)
		if batches%8 == 0 {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
		}
		batches++
	}
	if err := ts.Close(); err != nil {
		fatal(err)
	}
	got := sim.Report()

	fmt.Printf("memgate: trace %d records / %d bytes, limit %d MiB (%.1fx), peak streaming HeapAlloc %.1f MiB over %d batches\n",
		nrecs, size, *limitMB, float64(size)/float64(limit), float64(peak)/(1<<20), batches)

	fail := false
	if got != want {
		fail = true
		fmt.Fprintf(os.Stderr, "memgate: FAIL: streaming report diverges from materializing reference\n--- want ---\n%s\n--- got ---\n%s\n", want, got)
	}
	if ts.Records() != nrecs || sim.Records() != nrecs {
		fail = true
		fmt.Fprintf(os.Stderr, "memgate: FAIL: streamed %d / simulated %d records, wrote %d\n",
			ts.Records(), sim.Records(), nrecs)
	}
	if int64(peak) > limit {
		fail = true
		fmt.Fprintf(os.Stderr, "memgate: FAIL: peak HeapAlloc %d exceeds the %d-byte limit — streaming path is materializing\n",
			peak, limit)
	}
	if fail {
		os.Exit(1)
	}
	fmt.Println("memgate: PASS")
}

// generate streams synthetic records to path until the container reaches
// target bytes, then seals it with the block-index footer. Addresses
// cycle through a 256 KiB window (real hits and misses at gate geometry);
// function names cycle so the per-block string table does real work.
func generate(path string, target int64, block int) (nrecs, size int64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	cw := &countingWriter{w: f}
	bw := trace.NewBinaryWriter(cw)
	bw.EnableIndex()
	if block > 0 {
		bw.SetBlockRecords(block)
	}
	rec := trace.Record{Size: 4}
	var i uint64
	// Blocks flush as they fill, so cw.n tracks real file growth; the
	// check runs every 1024 records to keep the loop tight.
	for cw.n < target || i == 0 {
		for j := 0; j < 1024; j++ {
			rec.Site = funcSites[i%uint64(len(funcSites))]
			rec.Addr = 0x601000 + (i%4096)*64
			if i%3 == 0 {
				rec.Op = trace.Store
			} else {
				rec.Op = trace.Load
			}
			if err := bw.Write(&rec); err != nil {
				f.Close()
				return 0, 0, err
			}
			i++
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, 0, err
	}
	if err := f.Close(); err != nil {
		return 0, 0, err
	}
	return int64(i), cw.n, nil
}

// funcSites are the sites of the generated records: one per function,
// none naming a variable.
var funcSites = func() []*trace.Site {
	sites := make([]*trace.Site, 97)
	for i := range sites {
		sites[i] = trace.NewSite(fmt.Sprintf("workload_fn_%02d", i), ctype.AccessExpr{})
	}
	return sites
}()

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "memgate:", err)
	os.Exit(2)
}
