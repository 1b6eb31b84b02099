// Package cliutil holds the flag plumbing shared by the command-line tools:
// cache-geometry flags in DineroIV style, trace-decoder robustness flags,
// repeatable -D macro definitions, and trace-file loading.
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"tracedst/internal/cache"
	"tracedst/internal/telemetry"
	"tracedst/internal/trace"
)

// CacheFlags registers DineroIV-style geometry flags with the given prefix
// (e.g. "l1") and returns a builder.
type CacheFlags struct {
	size  *string
	bsize *int64
	assoc *int
	repl  *string
	write *string
	alloc *string
	class *bool
	pf    *string
	name  string
}

// NewCacheFlags registers -<p>-size, -<p>-bsize, -<p>-assoc, -<p>-repl,
// -<p>-write, -<p>-alloc and -<p>-classify on fs with the given defaults.
func NewCacheFlags(fs *flag.FlagSet, p string, defSize string, defBsize int64, defAssoc int) *CacheFlags {
	return &CacheFlags{
		name:  p,
		size:  fs.String(p+"-size", defSize, "cache size in bytes (suffixes k/m allowed)"),
		bsize: fs.Int64(p+"-bsize", defBsize, "cache block size in bytes"),
		assoc: fs.Int(p+"-assoc", defAssoc, "associativity (0 = fully associative)"),
		repl:  fs.String(p+"-repl", "lru", "replacement policy: lru|fifo|random|rr"),
		write: fs.String(p+"-write", "wb", "write policy: wb (write-back) | wt (write-through)"),
		alloc: fs.String(p+"-alloc", "wa", "write-miss policy: wa (allocate) | wn (no allocate)"),
		class: fs.Bool(p+"-classify", false, "classify misses (compulsory/capacity/conflict)"),
		pf:    fs.String(p+"-pf", "none", "sequential prefetch: none | miss | always"),
	}
}

// Build validates the flags into a cache.Config.
func (cf *CacheFlags) Build() (cache.Config, error) {
	var cfg cache.Config
	size, err := ParseSize(*cf.size)
	if err != nil {
		return cfg, err
	}
	repl, err := cache.ParseRepl(*cf.repl)
	if err != nil {
		return cfg, err
	}
	pf, err := cache.ParsePrefetch(*cf.pf)
	if err != nil {
		return cfg, err
	}
	write, err := cache.ParseWrite(*cf.write)
	if err != nil {
		return cfg, err
	}
	alloc, err := cache.ParseAlloc(*cf.alloc)
	if err != nil {
		return cfg, err
	}
	cfg = cache.Config{
		Name:           cf.name,
		Size:           size,
		BlockSize:      *cf.bsize,
		Assoc:          *cf.assoc,
		Repl:           repl,
		Write:          write,
		Alloc:          alloc,
		Prefetch:       pf,
		ClassifyMisses: *cf.class,
	}
	return cfg, cfg.Validate()
}

// ParseSize parses "32768", "32k", "4m".
func ParseSize(s string) (int64, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "k"):
		mult, s = 1024, s[:len(s)-1]
	case strings.HasSuffix(s, "m"):
		mult, s = 1024*1024, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}

// Defines is a repeatable -D NAME=VALUE flag.
type Defines map[string]string

// String implements flag.Value.
func (d Defines) String() string {
	var parts []string
	for k, v := range d {
		parts = append(parts, k+"="+v)
	}
	return strings.Join(parts, ",")
}

// Set implements flag.Value.
func (d Defines) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("define must be NAME=VALUE, got %q", s)
	}
	d[name] = val
	return nil
}

// ParseTraceFormat maps a -format flag value to a trace container format.
// "auto" (and "") mean "decide from context" — mirror the input format on a
// transform, or fall back to text — and return FormatUnknown.
func ParseTraceFormat(s string) (trace.FileFormat, error) {
	switch s {
	case "text", "gleipnir":
		return trace.FormatText, nil
	case "binary", "glb":
		return trace.FormatBinary, nil
	case "", "auto":
		return trace.FormatUnknown, nil
	}
	return trace.FormatUnknown, fmt.Errorf("bad trace format %q (want auto, text or binary)", s)
}

// TraceFlags registers the trace-decoder robustness flags shared by every
// tool that ingests a trace file.
type TraceFlags struct {
	lenient *bool
	maxBad  *int
	maxLine *int
	format  *string
	tool    string
}

// NewTraceFlags registers -lenient, -max-bad-lines and -max-line-bytes on
// fs. tool names the program in skip messages.
func NewTraceFlags(fs *flag.FlagSet, tool string) *TraceFlags {
	return &TraceFlags{
		tool:    tool,
		lenient: fs.Bool("lenient", false, "skip malformed trace lines instead of failing on the first"),
		maxBad:  fs.Int("max-bad-lines", 0, "lenient mode: fail after skipping this many lines (0 = unlimited)"),
		maxLine: fs.Int("max-line-bytes", 0, "maximum trace line length in bytes (0 = 1 MiB default)"),
	}
}

// AddFormatFlag registers -format on fs for tools that write traces.
// Opt-in rather than part of NewTraceFlags because some tools already own a
// -format flag with a different meaning (gltrace's output dialect).
// Readers never need it: input format is sniffed.
func (tf *TraceFlags) AddFormatFlag(fs *flag.FlagSet) {
	tf.format = fs.String("format", "auto", "output trace format: auto (mirror input) | text | binary")
}

// OutputFormat resolves the -format flag against the detected input format:
// "auto" mirrors the input, so text pipelines stay text and binary stay
// binary unless overridden.
func (tf *TraceFlags) OutputFormat(input trace.FileFormat) (trace.FileFormat, error) {
	if tf.format == nil {
		return input, nil
	}
	f, err := ParseTraceFormat(*tf.format)
	if err != nil {
		return trace.FormatUnknown, err
	}
	if f == trace.FormatUnknown {
		return input, nil
	}
	return f, nil
}

// Options builds the decoder options. In lenient mode every skipped line
// is reported through the telemetry logger as a warning whose message is
// "skipping line N: <reason>" (text format renders the traditional
// "<tool>: skipping line N: ..." stderr line) and counted by failure
// class under trace.decode.bad_lines.
func (tf *TraceFlags) Options() trace.DecodeOptions {
	opts := trace.DecodeOptions{MaxLineBytes: *tf.maxLine}
	if *tf.lenient {
		opts.Mode = trace.Lenient
		opts.MaxBadLines = *tf.maxBad
		opts.OnError = func(line int, text string, err error) {
			reg := telemetry.Default()
			reg.Counter("trace.decode.bad_lines").Inc()
			if errors.Is(err, trace.ErrLineTooLong) {
				reg.Counter("trace.decode.bad_lines.line_len").Inc()
			} else {
				reg.Counter("trace.decode.bad_lines.parse").Inc()
			}
			telemetry.L().Warn(fmt.Sprintf("skipping line %d: %v", line, err))
		}
	}
	return opts
}

// nopCloser wraps stdio streams so OpenTrace callers can Close uniformly
// without closing the process's fds.
type nopCloser struct{ io.Reader }

func (nopCloser) Close() error { return nil }

// OpenTrace opens a trace file for streaming ("-" means stdin; Close is a
// no-op for stdin).
func OpenTrace(path string) (io.ReadCloser, error) {
	if path == "-" {
		return nopCloser{os.Stdin}, nil
	}
	return os.Open(path)
}

// LoadTraceOpts reads a trace file ("-" means stdin) with explicit decode
// options. hasHdr reports whether the input actually began with a START
// line, so writers can round-trip headerless traces byte-for-byte.
func LoadTraceOpts(path string, opts trace.DecodeOptions) (h trace.Header, hasHdr bool, recs []trace.Record, err error) {
	h, hasHdr, recs, _, err = LoadTraceFormat(path, opts)
	return h, hasHdr, recs, err
}

// LoadTraceFormat is LoadTraceOpts plus the sniffed container format, for
// tools that mirror the input format on output. The trace format (text or
// binary) is detected from the file's magic; a binary trace decodes across
// GOMAXPROCS workers with serial-identical results (trace.DecodeBytes).
func LoadTraceFormat(path string, opts trace.DecodeOptions) (h trace.Header, hasHdr bool, recs []trace.Record, format trace.FileFormat, err error) {
	in, err := OpenTrace(path)
	if err != nil {
		return trace.Header{}, false, nil, trace.FormatUnknown, err
	}
	defer in.Close()
	data, err := io.ReadAll(in)
	if err != nil {
		return trace.Header{}, false, nil, trace.FormatUnknown, err
	}
	format = trace.DetectFormat(data)
	h, hasHdr, recs, err = trace.DecodeBytes(data, opts, 0)
	PublishDecode(format, int64(len(data)), int64(len(recs)))
	return h, hasHdr, recs, format, err
}

// WriteTrace writes a trace file ("-" means stdout), header included.
func WriteTrace(path string, h trace.Header, recs []trace.Record) error {
	return WriteTraceOpts(path, h, true, recs)
}

// WriteTraceOpts writes a trace file ("-" means stdout), emitting the
// START line only when hasHdr is true. File output goes through an atomic
// temp-file+rename, so an interrupted run never leaves a truncated trace
// at the destination path. The container format follows the path: ".glb"
// files are written binary, everything else text.
func WriteTraceOpts(path string, h trace.Header, hasHdr bool, recs []trace.Record) error {
	return WriteTraceFormat(path, h, hasHdr, recs, trace.FormatUnknown)
}

// WriteTraceFormat is WriteTraceOpts with an explicit container format.
// FormatUnknown picks by destination: ".glb" paths get binary, others text.
func WriteTraceFormat(path string, h trace.Header, hasHdr bool, recs []trace.Record, format trace.FileFormat) error {
	return WriteTraceStream(path, WriterOptions{Format: format}, func(w trace.RecordWriter) error {
		if hasHdr {
			if err := w.WriteHeader(h); err != nil {
				return err
			}
		}
		for i := range recs {
			if err := w.Write(&recs[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// WriteFile writes an output artifact ("-" means stdout) via an atomic
// temp-file+rename, the shared crash-safe path for every CLI that produces
// CSV/gnuplot/diff files.
func WriteFile(path string, data []byte) error {
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return trace.WriteFileAtomic(path, data, 0o644)
}

// WriteTo streams write's output to path ("-" means stdout) with the same
// atomic-rename guarantee as WriteFile.
func WriteTo(path string, write func(w io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	return trace.WriteToAtomic(path, write)
}
