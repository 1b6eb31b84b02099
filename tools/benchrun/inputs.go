package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"tracedst/internal/minic"
	"tracedst/internal/trace"
	"tracedst/internal/tracer"
	"tracedst/internal/workloads"
)

// program is one miniC workload traced during set-up.
type program struct {
	src  string
	defs map[string]string
}

// mixPrograms make up the mixed .glb of the glb-* workloads: about 1.57M
// records, far larger than the host's L2, with dense (matmul, particles),
// data-dependent (histogram) and pointer-chasing (list) access patterns.
var mixPrograms = []program{
	{workloads.MatMul, map[string]string{"N": "48"}},
	{workloads.Histogram, map[string]string{"N": "65536", "BINS": "256"}},
	{workloads.ParticlesAoS, map[string]string{"N": "8192"}},
	{workloads.ListTraversal, map[string]string{"N": "4096"}},
}

// The mixed trace is the programs' blocks (trace.DefaultBlockRecords
// records each) in one fixed shuffled order, so any long stretch of it
// holds the programs in about the same proportions. The order is drawn
// from blockOrderSeed, not from the run's seed: which blocks each shard of
// glb-sharded receives decides how many distinct symbols its attribution
// tables grow to hold, and with a seed-drawn order that moved
// glb-sharded's allocation per record by up to a third between seeds.
// The run's seed draws the header PID.
const blockOrderSeed = 1

// chunkedListener streams a tracer's records into a writer every block,
// so tracing the largest program never holds its whole trace in memory.
type chunkedListener struct {
	t   *tracer.Tracer
	w   trace.RecordWriter
	err error
}

func (l *chunkedListener) Instrument(on bool) { l.t.Instrument(on) }

func (l *chunkedListener) Access(op minic.AccessOp, addr uint64, size int64, fn string, depth int) {
	l.t.Access(op, addr, size, fn, depth)
	if len(l.t.Records) >= trace.DefaultBlockRecords {
		l.drain()
	}
}

func (l *chunkedListener) drain() {
	for i := range l.t.Records {
		if l.err != nil {
			break
		}
		l.err = l.w.Write(&l.t.Records[i])
	}
	l.t.Records = l.t.Records[:0]
}

// traceInto runs p under the tracer and writes its trace (header first)
// to w without flushing it.
func traceInto(p program, pid int, w trace.RecordWriter) error {
	prog, err := minic.Parse(p.src, p.defs)
	if err != nil {
		return err
	}
	t := tracer.New(tracer.Options{PID: pid})
	l := &chunkedListener{t: t, w: w}
	in := minic.NewInterp(prog, l)
	t.Attach(in)
	if err := w.WriteHeader(t.Header()); err != nil {
		return err
	}
	if _, err := in.Run(); err != nil {
		return fmt.Errorf("tracing: %w", err)
	}
	l.drain()
	return l.err
}

// writeGLB creates path and fills it through an indexed binary writer.
func writeGLB(path string, fill func(w *trace.BinaryWriter) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<16)
	w := trace.NewBinaryWriter(bw)
	w.EnableIndex()
	if err := fill(w); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// buildMixedGLB traces every mix program into its own indexed .glb under
// dir, then writes dir/mixed.glb: the programs' blocks in the fixed
// shuffled order, under a header PID drawn from rng. It returns the mixed
// trace's path and record count.
func buildMixedGLB(dir string, rng *rand.Rand) (string, int64, error) {
	type block struct {
		tr *trace.IndexedTrace
		i  int
	}
	var blocks []block
	var parts []*trace.IndexedTrace
	defer func() {
		for _, tr := range parts {
			tr.Close()
		}
	}()
	for i, p := range mixPrograms {
		path := filepath.Join(dir, fmt.Sprintf("part%d.glb", i))
		if err := writeGLB(path, func(w *trace.BinaryWriter) error { return traceInto(p, 0, w) }); err != nil {
			return "", 0, err
		}
		tr, err := trace.OpenIndexed(path)
		if err != nil {
			return "", 0, err
		}
		parts = append(parts, tr)
		for i := 0; i < tr.NumBlocks(); i++ {
			blocks = append(blocks, block{tr, i})
		}
	}
	order := rand.New(rand.NewSource(blockOrderSeed))
	order.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })

	path := filepath.Join(dir, "mixed.glb")
	var n int64
	err := writeGLB(path, func(w *trace.BinaryWriter) error {
		if err := w.WriteHeader(trace.Header{PID: pidLo + rng.Intn(pidHi-pidLo)}); err != nil {
			return err
		}
		for _, b := range blocks {
			src := b.tr.Source(b.i, b.i+1, trace.DecodeOptions{})
			for {
				batch, err := src.NextBatch()
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
				for i := range batch {
					if err := w.Write(&batch[i]); err != nil {
						return err
					}
				}
				n += int64(len(batch))
			}
		}
		return nil
	})
	return path, n, err
}

// PIDs of service uploads lie in [pidLo, pidHi): every one has a
// three-byte zigzag varint, so patching the PID into a template never
// moves a byte of the rest of the upload (block offsets in the .glb
// footer stay valid).
const (
	pidLo = 100000
	pidHi = 1000000
)

// upload is a service upload template: the bytes of an indexed .glb
// around its header PID. Each request sends prefix + PID + suffix,
// sharing prefix and suffix instead of copying the whole trace.
type upload struct {
	prefix, suffix []byte
	pidLen         int
	records        int64
	want           string // reference report (the oracle)
}

// body returns the upload with the given PID.
func (u *upload) body(pid int) io.Reader {
	p := binary.AppendVarint(nil, int64(pid))
	return io.MultiReader(bytes.NewReader(u.prefix), bytes.NewReader(p), bytes.NewReader(u.suffix))
}

// size returns the upload's length in bytes.
func (u *upload) size() int64 { return int64(len(u.prefix) + u.pidLen + len(u.suffix)) }

// newUpload encodes recs (traced with PID pidLo) into a template.
func newUpload(recs []trace.Record) (*upload, error) {
	var buf bytes.Buffer
	w := trace.NewBinaryWriter(&buf)
	w.EnableIndex()
	if err := w.WriteHeader(trace.Header{PID: pidLo}); err != nil {
		return nil, err
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	data := buf.Bytes()
	pidAt := trace.BinaryMagicLen + 1
	_, n := binary.Varint(data[pidAt:])
	return &upload{
		prefix:  data[:pidAt],
		suffix:  data[pidAt+n:],
		pidLen:  n,
		records: int64(len(recs)),
	}, nil
}
