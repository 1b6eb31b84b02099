// Streaming trace entry points: the constant-memory counterparts of
// LoadTrace*/WriteTrace*. OpenTraceSource streams a trace file as record
// batches (O(batch) live heap however large the file), StreamTrace drives
// a callback over them, and WriteTraceStream writes a trace incrementally
// behind the same atomic-rename and telemetry guarantees as the
// materializing writers.
package cliutil

import (
	"context"
	"io"
	"os"
	"strconv"
	"strings"

	"tracedst/internal/telemetry"
	"tracedst/internal/trace"
)

// countingWriter tallies bytes written, for the trace.encode.bytes counter.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// countingReader tallies bytes read, for the trace.decode.bytes counter.
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// TraceStream is an open trace file being streamed as record batches. It
// implements trace.RecordSource; Close releases the file and publishes the
// decode telemetry (files, bytes, records by format) that the
// materializing loaders publish per call, so streaming and slurping runs
// report identically.
type TraceStream struct {
	src     trace.RecordSource
	in      io.ReadCloser
	cr      *countingReader
	format  trace.FileFormat
	span    *telemetry.Span // non-nil when opened with OpenTraceSourceCtx
	records int64
	batches int64
	closed  bool
}

// OpenTraceSource opens path ("-" means stdin) for streaming with the
// given decode options. The container format is sniffed from the magic;
// binary traces stream block-at-a-time with zero copying.
func OpenTraceSource(path string, opts trace.DecodeOptions) (*TraceStream, error) {
	return openTraceStream(path, func(r io.Reader) (trace.RecordSource, trace.FileFormat, error) {
		return trace.OpenReader(r, opts)
	})
}

// OpenTraceSourceCtx is OpenTraceSource with a "trace.decode.stream" span
// covering the stream's lifetime (open to Close): when ctx carries a
// trace the span joins its tree — tagged with format, records and bytes —
// and the per-name aggregate is recorded either way.
func OpenTraceSourceCtx(ctx context.Context, path string, opts trace.DecodeOptions) (*TraceStream, error) {
	ts, err := OpenTraceSource(path, opts)
	if err != nil {
		return nil, err
	}
	ts.startSpan(ctx)
	return ts, nil
}

// OpenValidatingSourceCtx is OpenTraceSourceCtx over a trace.Validator:
// one pass over the file both validates it and feeds the consumer, which
// receives only the batches before the first one that failed validation
// (see trace.Validator). The Validator is returned for its report; call
// its Finish once the consumer is done.
func OpenValidatingSourceCtx(ctx context.Context, path string, opts trace.ValidateOptions) (*TraceStream, *trace.Validator, error) {
	var v *trace.Validator
	ts, err := openTraceStream(path, func(r io.Reader) (trace.RecordSource, trace.FileFormat, error) {
		var err error
		if v, err = trace.NewValidator(ctx, r, opts); err != nil {
			return nil, trace.FormatUnknown, err
		}
		return v, v.Format(), nil
	})
	if err != nil {
		return nil, nil, err
	}
	ts.startSpan(ctx)
	return ts, v, nil
}

// openTraceStream opens path and builds the stream's source over it with
// open, counting the bytes the source reads.
func openTraceStream(path string, open func(io.Reader) (trace.RecordSource, trace.FileFormat, error)) (*TraceStream, error) {
	in, err := OpenTrace(path)
	if err != nil {
		return nil, err
	}
	cr := &countingReader{r: in}
	src, format, err := open(cr)
	if err != nil {
		in.Close()
		return nil, err
	}
	return &TraceStream{src: src, in: in, cr: cr, format: format}, nil
}

func (ts *TraceStream) startSpan(ctx context.Context) {
	ts.span, _ = telemetry.Default().StartSpanCtx(ctx, "trace.decode.stream")
	ts.span.SetAttr("format", ts.format.String())
}

// Format returns the sniffed container format.
func (ts *TraceStream) Format() trace.FileFormat { return ts.format }

// Records returns how many records have been streamed so far.
func (ts *TraceStream) Records() int64 { return ts.records }

// Bytes returns how many input bytes have been consumed so far.
func (ts *TraceStream) Bytes() int64 { return ts.cr.n }

// Header returns the trace header (zero when absent).
func (ts *TraceStream) Header() (trace.Header, error) { return ts.src.Header() }

// HasHeader reports whether the trace carried a START header.
func (ts *TraceStream) HasHeader() bool { return ts.src.HasHeader() }

// BadLines returns how many damaged units were skipped in lenient mode.
func (ts *TraceStream) BadLines() int { return ts.src.BadLines() }

// NextBatch returns the next record batch (see trace.RecordSource).
func (ts *TraceStream) NextBatch() ([]trace.Record, error) {
	batch, err := ts.src.NextBatch()
	ts.records += int64(len(batch))
	if len(batch) > 0 {
		ts.batches++
	}
	return batch, err
}

// Close releases the input and publishes the decode telemetry. Safe to
// call more than once; only the first call publishes.
func (ts *TraceStream) Close() error {
	if ts.closed {
		return nil
	}
	ts.closed = true
	PublishDecode(ts.format, ts.cr.n, ts.records)
	telemetry.Default().Counter("trace.stream.batches").Add(ts.batches)
	if ts.span != nil {
		ts.span.SetAttr("records", strconv.FormatInt(ts.records, 10))
		ts.span.SetAttr("bytes", strconv.FormatInt(ts.cr.n, 10))
		ts.span.End()
		ts.span = nil
	}
	return ts.in.Close()
}

// PublishDecode adds one decoded trace — its bytes and the records
// decoded, by container format — to the trace.decode counters. Every
// decode path publishes through it (LoadTraceFormat, TraceStream.Close,
// sharded runs over an IndexedTrace), so they all report alike.
func PublishDecode(format trace.FileFormat, bytes, records int64) {
	reg := telemetry.Default()
	reg.Counter("trace.decode.files").Inc()
	reg.Counter("trace.decode.bytes").Add(bytes)
	reg.Counter("trace.decode.records").Add(records)
	reg.Counter("trace.decode.records." + format.String()).Add(records)
}

// StreamTrace streams path's records through fn batch by batch — the
// constant-memory counterpart of LoadTraceOpts for consumers that fold
// rather than materialize. fn must not retain the batch slice.
func StreamTrace(path string, opts trace.DecodeOptions, fn func(batch []trace.Record) error) error {
	ts, err := OpenTraceSource(path, opts)
	if err != nil {
		return err
	}
	defer ts.Close()
	for {
		batch, err := ts.NextBatch()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(batch); err != nil {
			return err
		}
	}
}

// WriterOptions tune WriteTraceStream.
type WriterOptions struct {
	// Format selects the container; FormatUnknown picks by path suffix
	// (".glb" binary, otherwise text).
	Format trace.FileFormat
	// Index makes binary writers append the block-index footer so the
	// output is seekable/shardable without a scan. Ignored for text.
	Index bool
}

// ResolveTraceFormat applies the path-suffix default: FormatUnknown
// becomes binary for ".glb" destinations and text otherwise.
func ResolveTraceFormat(path string, format trace.FileFormat) trace.FileFormat {
	if format != trace.FormatUnknown {
		return format
	}
	if strings.HasSuffix(path, ".glb") {
		return trace.FormatBinary
	}
	return trace.FormatText
}

// WriteTraceStream writes a trace to path ("-" means stdout) by handing
// emit a RecordWriter (WriteTraceFormat is it over a record slice):
// records are encoded as emit produces them, nothing is materialized, and
// file output still goes through the atomic temp-file+rename.
// WriteTraceStream flushes (and emits the block-index footer when
// requested) after emit returns; both writers' Flush is idempotent, so an
// emit that already flushed is fine.
func WriteTraceStream(path string, o WriterOptions, emit func(w trace.RecordWriter) error) error {
	format := ResolveTraceFormat(path, o.Format)
	var written, records int64
	run := func(out io.Writer) error {
		cw := &countingWriter{w: out}
		w := trace.NewWriterFormat(cw, format)
		if bw, ok := w.(*trace.BinaryWriter); ok && o.Index {
			bw.EnableIndex()
		}
		if err := emit(w); err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
		written = cw.n
		records = int64(w.Records())
		return nil
	}
	var err error
	if path == "-" {
		err = run(os.Stdout)
	} else {
		err = trace.WriteToAtomic(path, run)
	}
	if err != nil {
		return err
	}
	reg := telemetry.Default()
	reg.Counter("trace.encode.files").Inc()
	reg.Counter("trace.encode.bytes").Add(written)
	reg.Counter("trace.encode.records").Add(records)
	reg.Counter("trace.encode.records." + format.String()).Add(records)
	return nil
}
