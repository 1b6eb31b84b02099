package cliutil

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"tracedst/internal/cache"
	"tracedst/internal/ctype"
	"tracedst/internal/telemetry"
	"tracedst/internal/trace"
)

func TestParseSize(t *testing.T) {
	cases := map[string]int64{
		"32768": 32768,
		"32k":   32768,
		"32K":   32768,
		"4m":    4 * 1024 * 1024,
		" 8k ":  8192,
	}
	for in, want := range cases {
		got, err := ParseSize(in)
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "k", "12q", "1.5k"} {
		if _, err := ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) accepted", bad)
		}
	}
}

func TestCacheFlagsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	cf := NewCacheFlags(fs, "l1", "32k", 32, 1)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	cfg, err := cf.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Size != 32768 || cfg.BlockSize != 32 || cfg.Assoc != 1 ||
		cfg.Repl != cache.ReplLRU || cfg.Write != cache.WriteBack || cfg.Alloc != cache.WriteAllocate {
		t.Errorf("cfg = %+v", cfg)
	}
}

func TestCacheFlagsParsing(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	cf := NewCacheFlags(fs, "l1", "32k", 32, 1)
	args := []string{"-l1-size", "8k", "-l1-assoc", "64", "-l1-repl", "rr",
		"-l1-write", "wt", "-l1-alloc", "wn", "-l1-classify"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	cfg, err := cf.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Size != 8192 || cfg.Assoc != 64 || cfg.Repl != cache.ReplRoundRobin ||
		cfg.Write != cache.WriteThrough || cfg.Alloc != cache.NoWriteAllocate || !cfg.ClassifyMisses {
		t.Errorf("cfg = %+v", cfg)
	}
}

func TestCacheFlagsErrors(t *testing.T) {
	build := func(args ...string) error {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		cf := NewCacheFlags(fs, "l1", "32k", 32, 1)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		_, err := cf.Build()
		return err
	}
	for _, args := range [][]string{
		{"-l1-size", "nope"},
		{"-l1-repl", "mru"},
		{"-l1-write", "xx"},
		{"-l1-alloc", "xx"},
		{"-l1-bsize", "33"},
	} {
		if build(args...) == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestParseConfigSpecWriteAlloc(t *testing.T) {
	cfg, err := ParseConfigSpec(cache.Paper32KDirect(), "write=wt,alloc=wn")
	if err != nil || cfg.Write != cache.WriteThrough || cfg.Alloc != cache.NoWriteAllocate {
		t.Errorf("write=wt,alloc=wn: write %v, alloc %v, err %v", cfg.Write, cfg.Alloc, err)
	}
	for spec, want := range map[string]string{
		"write=xx": `config field "write=xx": bad write policy "xx"`,
		"alloc=xx": `config field "alloc=xx": bad alloc policy "xx"`,
	} {
		if _, err := ParseConfigSpec(cache.Paper32KDirect(), spec); err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", spec, err, want)
		}
	}
}

func TestDefinesFlag(t *testing.T) {
	d := Defines{}
	if err := d.Set("LEN=16"); err != nil {
		t.Fatal(err)
	}
	if err := d.Set("N=8"); err != nil {
		t.Fatal(err)
	}
	if d["LEN"] != "16" || d["N"] != "8" {
		t.Errorf("defines = %v", d)
	}
	if err := d.Set("NOVALUE"); err == nil {
		t.Error("missing '=' accepted")
	}
	if err := d.Set("=5"); err == nil {
		t.Error("empty name accepted")
	}
	if d.String() == "" {
		t.Error("String empty")
	}
}

func TestLoadWriteTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.trc")
	h := trace.Header{PID: 42}
	rec, err := trace.ParseRecord("S 000601040 4 main GV g")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(path, h, []trace.Record{rec}); err != nil {
		t.Fatal(err)
	}
	h2, hasHdr, recs, err := LoadTraceOpts(path, trace.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if h2.PID != 42 || !hasHdr || len(recs) != 1 || !recs[0].Equal(&rec) {
		t.Errorf("round trip: %+v %+v", h2, recs)
	}
}

func TestLoadTraceMissing(t *testing.T) {
	if _, _, _, err := LoadTraceOpts(filepath.Join(t.TempDir(), "missing.trc"), trace.DecodeOptions{}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestWriteTraceBadDir(t *testing.T) {
	if err := WriteTrace(filepath.Join(t.TempDir(), "no", "such", "dir", "t.trc"),
		trace.Header{}, nil); err == nil {
		t.Error("bad path accepted")
	}
	_ = os.ErrNotExist
}

func TestCacheFlagsPrefetch(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	cf := NewCacheFlags(fs, "l1", "32k", 32, 1)
	if err := fs.Parse([]string{"-l1-pf", "always"}); err != nil {
		t.Fatal(err)
	}
	cfg, err := cf.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Prefetch != cache.PrefetchAlways {
		t.Errorf("prefetch = %v", cfg.Prefetch)
	}
	fs2 := flag.NewFlagSet("t", flag.ContinueOnError)
	cf2 := NewCacheFlags(fs2, "l1", "32k", 32, 1)
	if err := fs2.Parse([]string{"-l1-pf", "bogus"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cf2.Build(); err == nil {
		t.Error("bad prefetch flag accepted")
	}
}

func TestTraceFlagsDefaultsToStrict(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	tf := NewTraceFlags(fs, "tool")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	opts := tf.Options()
	if opts.Mode != trace.Strict || opts.OnError != nil || opts.MaxBadLines != 0 {
		t.Errorf("defaults not strict: %+v", opts)
	}
}

func TestTraceFlagsLenient(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	tf := NewTraceFlags(fs, "tool")
	if err := fs.Parse([]string{"-lenient", "-max-bad-lines", "5", "-max-line-bytes", "4096"}); err != nil {
		t.Fatal(err)
	}
	opts := tf.Options()
	if opts.Mode != trace.Lenient || opts.MaxBadLines != 5 || opts.MaxLineBytes != 4096 {
		t.Errorf("lenient flags not mapped: %+v", opts)
	}
	if opts.OnError == nil {
		t.Error("lenient mode must report skips")
	}
}

func TestLoadTraceOptsHeaderless(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "nohdr.trc")
	const body = "S 000601040 4 main GV g\n"
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	h, hasHdr, recs, err := LoadTraceOpts(p, trace.DecodeOptions{})
	if err != nil || hasHdr || h.PID != 0 || len(recs) != 1 {
		t.Fatalf("hasHdr=%v h=%v recs=%d err=%v", hasHdr, h, len(recs), err)
	}
	// Round trip keeps it headerless.
	out := filepath.Join(dir, "out.trc")
	if err := WriteTraceOpts(out, h, hasHdr, recs); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != body {
		t.Errorf("round trip = %q, want %q", b, body)
	}
}

func TestLoadTraceOptsLenient(t *testing.T) {
	p := filepath.Join(t.TempDir(), "bad.trc")
	src := "START PID 1\nS 000601040 4 main GV g\n@@junk@@\nL 000601040 4 main GV g\n"
	if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadTraceOpts(p, trace.DecodeOptions{}); err == nil {
		t.Fatal("strict load accepted junk")
	}
	h, hasHdr, recs, err := LoadTraceOpts(p, trace.DecodeOptions{Mode: trace.Lenient})
	if err != nil || !hasHdr || h.PID != 1 || len(recs) != 2 {
		t.Fatalf("lenient: hasHdr=%v h=%v recs=%d err=%v", hasHdr, h, len(recs), err)
	}
}

func TestOpenTraceStdin(t *testing.T) {
	rc, err := OpenTrace("-")
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.Close(); err != nil {
		t.Errorf("stdin Close: %v", err)
	}
	if _, err := OpenTrace(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestWriteTraceAtomic(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "out.trc")
	h := trace.Header{PID: 7}
	recs := []trace.Record{{Op: trace.Store, Addr: 0x601040, Size: 4, Site: trace.NewSite("main", ctype.AccessExpr{})}}
	if err := WriteTrace(p, h, recs); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	want := "START PID 7\nS 000601040 4 main\n"
	if string(got) != want {
		t.Errorf("trace = %q, want %q", got, want)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("WriteTrace leaked temp files: %v", ents)
	}
}

func TestWriteFileAtomicHelper(t *testing.T) {
	p := filepath.Join(t.TempDir(), "a.csv")
	if err := WriteFile(p, []byte("x,y\n")); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(p)
	if string(got) != "x,y\n" {
		t.Errorf("content = %q", got)
	}
}

func TestParseTraceFormat(t *testing.T) {
	cases := []struct {
		in   string
		want trace.FileFormat
		err  bool
	}{
		{"", trace.FormatUnknown, false},
		{"auto", trace.FormatUnknown, false},
		{"text", trace.FormatText, false},
		{"gleipnir", trace.FormatText, false},
		{"binary", trace.FormatBinary, false},
		{"glb", trace.FormatBinary, false},
		{"yaml", trace.FormatUnknown, true},
	}
	for _, c := range cases {
		got, err := ParseTraceFormat(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParseTraceFormat(%q) = %v, %v; want %v, err=%v", c.in, got, err, c.want, c.err)
		}
	}
}

func TestWriteTraceFormatBinaryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	h := trace.Header{PID: 7}
	rec, err := trace.ParseRecord("S 000601040 4 main GV g")
	if err != nil {
		t.Fatal(err)
	}
	recs := []trace.Record{rec}

	// An explicit binary request and a .glb extension under auto must both
	// produce the block format; loading sniffs it back without being told.
	for _, tc := range []struct {
		name   string
		format trace.FileFormat
	}{
		{"explicit.trc", trace.FormatBinary},
		{"auto.glb", trace.FormatUnknown},
	} {
		p := filepath.Join(dir, tc.name)
		reg := telemetry.NewRegistry()
		prev := telemetry.SetDefault(reg)
		err := WriteTraceFormat(p, h, true, recs, tc.format)
		telemetry.SetDefault(prev)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if trace.DetectFormat(b) != trace.FormatBinary {
			t.Fatalf("%s: not binary on disk: %q", tc.name, b[:min(len(b), 8)])
		}
		// One file of len(b) bytes and one binary record.
		for name, want := range map[string]int64{
			"trace.encode.files": 1, "trace.encode.bytes": int64(len(b)),
			"trace.encode.records": 1, "trace.encode.records.binary": 1,
		} {
			if got := reg.Counter(name).Value(); got != want {
				t.Errorf("%s: %s = %d, want %d", tc.name, name, got, want)
			}
		}
		h2, hasHdr, recs2, format, err := LoadTraceFormat(p, trace.DecodeOptions{})
		if err != nil || !hasHdr || h2 != h || format != trace.FormatBinary {
			t.Fatalf("%s: load: h=%v hasHdr=%v format=%v err=%v", tc.name, h2, hasHdr, format, err)
		}
		if len(recs2) != 1 || !recs2[0].Equal(&rec) {
			t.Fatalf("%s: records changed: %+v", tc.name, recs2)
		}
	}

	// .glb loads still report text when the payload is text.
	p := filepath.Join(dir, "lying.glb")
	if err := WriteTraceFormat(p, h, true, recs, trace.FormatText); err != nil {
		t.Fatal(err)
	}
	if _, _, _, format, err := LoadTraceFormat(p, trace.DecodeOptions{}); err != nil || format != trace.FormatText {
		t.Fatalf("text-in-.glb: format=%v err=%v", format, err)
	}
}

func TestTraceFlagsOutputFormat(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	tf := NewTraceFlags(fs, "tool")
	tf.AddFormatFlag(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	// auto mirrors the input container.
	if f, err := tf.OutputFormat(trace.FormatBinary); err != nil || f != trace.FormatBinary {
		t.Errorf("auto: %v, %v", f, err)
	}
	fs2 := flag.NewFlagSet("t", flag.ContinueOnError)
	tf2 := NewTraceFlags(fs2, "tool")
	tf2.AddFormatFlag(fs2)
	if err := fs2.Parse([]string{"-format", "text"}); err != nil {
		t.Fatal(err)
	}
	if f, err := tf2.OutputFormat(trace.FormatBinary); err != nil || f != trace.FormatText {
		t.Errorf("override: %v, %v", f, err)
	}
}
