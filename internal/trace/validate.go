// Streaming trace validation: the engine behind cmd/glcheck. A Validator
// decodes a trace leniently, collecting every decode failure instead of
// stopping at the first, and layers semantic checks on top: header sanity,
// address-region plausibility against the memmodel layout, monotonic
// thread introduction, and per-symbol referential consistency. The result
// is a structured Report suitable for both CLI output and tests.
package trace

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"tracedst/internal/memmodel"
	"tracedst/internal/telemetry"
)

// Severity ranks a diagnostic.
type Severity int

// Severities. Errors fail validation (glcheck exits non-zero); warnings
// flag suspicious but survivable input.
const (
	SevWarn Severity = iota
	SevError
)

// String names the severity.
func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warn"
}

// Diagnostic codes emitted by the validator.
const (
	CodeParse    = "parse"     // line failed to decode as a record
	CodeHeader   = "header"    // START line problems (corrupt, duplicate, bad PID)
	CodeLineLen  = "line-len"  // line over the length limit
	CodeRegion   = "region"    // address outside / straddling memmodel regions
	CodeOrder    = "order"     // non-monotonic thread introduction, bad frame depth
	CodeSymRef   = "symref"    // symbol-table referential integrity
	CodeNoHeader = "no-header" // trace has no START line at all
	CodeBlock    = "block"     // binary trace: damaged or unreadable block
	CodeFooter   = "footer"    // binary trace: damaged block-index footer (records intact)
)

// Diag is one validator finding.
type Diag struct {
	// Line is the 1-based input line (0 when not line-specific). For
	// binary traces it is the record ordinal, or the block ordinal for
	// CodeBlock findings.
	Line int
	Sev  Severity
	Code string
	Msg  string
}

// String formats the finding for terminal output.
func (d Diag) String() string {
	if d.Line > 0 {
		return fmt.Sprintf("%s: line %d: [%s] %s", d.Sev, d.Line, d.Code, d.Msg)
	}
	return fmt.Sprintf("%s: [%s] %s", d.Sev, d.Code, d.Msg)
}

// Report is the structured outcome of validating one trace.
type Report struct {
	// Records is the count of well-formed records seen.
	Records int
	// BadLines is the count of undecodable lines (for binary traces, of
	// dropped blocks).
	BadLines int
	// HasHeader reports whether a valid START line was present.
	HasHeader bool
	// Header is the parsed header (zero when HasHeader is false).
	Header Header
	// Diags holds the findings, in input order, capped at the configured
	// maximum; Dropped counts findings beyond the cap.
	Diags   []Diag
	Dropped int

	errors, warnings int
	max              int
	// byCode counts findings per diagnostic code, past the Diags cap.
	byCode map[string]int
}

// Errors returns the number of error-severity findings (including dropped).
func (r *Report) Errors() int { return r.errors }

// Warnings returns the number of warning-severity findings (including dropped).
func (r *Report) Warnings() int { return r.warnings }

// OK reports whether the trace passed: no error-severity findings.
func (r *Report) OK() bool { return r.errors == 0 }

func (r *Report) add(line int, sev Severity, code, format string, args ...any) {
	if sev == SevError {
		r.errors++
	} else {
		r.warnings++
	}
	if r.byCode == nil {
		r.byCode = map[string]int{}
	}
	r.byCode[code]++
	if r.max > 0 && len(r.Diags) >= r.max {
		r.Dropped++
		return
	}
	r.Diags = append(r.Diags, Diag{Line: line, Sev: sev, Code: code, Msg: fmt.Sprintf(format, args...)})
}

// Summary renders the report for humans: one status line, then findings.
func (r *Report) Summary() string {
	var b strings.Builder
	hdr := "no header"
	if r.HasHeader {
		hdr = fmt.Sprintf("PID %d", r.Header.PID)
	}
	status := "ok"
	if !r.OK() {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "%s: %d records, %d bad lines, %s — %d errors, %d warnings\n",
		status, r.Records, r.BadLines, hdr, r.errors, r.warnings)
	for _, d := range r.Diags {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	if r.Dropped > 0 {
		fmt.Fprintf(&b, "  ... and %d more findings\n", r.Dropped)
	}
	return b.String()
}

// ValidateOptions tune a validation pass.
type ValidateOptions struct {
	// MaxLineBytes is passed to the decoder (0 = DefaultMaxLineBytes).
	MaxLineBytes int
	// MaxDiags caps the findings kept in the report (0 = 100). Counters
	// keep counting past the cap.
	MaxDiags int
	// SkipRegionChecks disables the memmodel address-region checks, for
	// traces captured from real binaries whose layout differs from the
	// paper's model.
	SkipRegionChecks bool
}

// synthLimit bounds the address window the transformation engine uses for
// injected synthetic scalars (xform.Engine.synthNext starts just above
// StackTop); accesses there are flagged as warnings, not errors, so that
// transformed traces still validate.
const synthLimit = memmodel.StackTop + 1<<16

// ValidateCtx is Validate under ctx: the pass is a "validate.trace" span
// that joins ctx's trace when it carries one, tagged with the record and
// diagnostic counts (the per-name aggregate is recorded either way), and
// it stops with ctx's error once ctx is done.
func ValidateCtx(ctx context.Context, r io.Reader, opts ValidateOptions) (*Report, error) {
	return newValidator(ctx, r, opts, true).Finish()
}

// Validate streams the trace from r through the decoder and semantic
// checks. Both container formats are accepted — the format is sniffed from
// the magic. The returned error is non-nil only for I/O failures or a
// blown bad-line budget — format problems (including damaged or truncated
// binary blocks) land in the Report instead.
func Validate(r io.Reader, opts ValidateOptions) (*Report, error) {
	return newValidator(context.Background(), r, opts, false).Finish()
}

// Validator is a validating RecordSource: it decodes a trace leniently,
// exactly as Validate does, and runs the semantic checks on each batch
// before handing the batch on unchanged — block by block for binary
// traces, DefaultBatchRecords records at a time for text. The first batch
// that draws an error-severity finding, a decode failure included, is not
// handed on, nor is any later one: the Validator drains the rest of the
// input into its Report, checking its context between batches, and then
// returns io.EOF. A consumer of the stream therefore never sees a record
// of a batch that failed validation, and the Report still counts every
// finding of the whole trace. Validate is this loop with no consumer.
type Validator struct {
	ctx  context.Context
	opts ValidateOptions
	rep  *Report
	chk  *recordChecker
	span *telemetry.Span // nil for Validate; ended with the pass

	rd     RecordReader
	format FileFormat
	bin    *BinaryReader // binary input: batches are decoded blocks
	text   *Reader       // text input: each record is checked as it is read, at its line

	sawBadHeader bool
	failed       bool  // an error-severity finding was seen: forward nothing more
	err          error // sticky end of the pass; io.EOF when it completed
}

// NewValidator opens r for one validating pass under ctx, timed as a
// "validate.trace" span like ValidateCtx. The error is non-nil only when
// the input could not be opened (see Validate); an unreadable binary
// preamble is a finding, and the Validator then yields no batches.
func NewValidator(ctx context.Context, r io.Reader, opts ValidateOptions) (*Validator, error) {
	v := newValidator(ctx, r, opts, true)
	if v.err != nil && v.err != io.EOF {
		return nil, v.err
	}
	return v, nil
}

func newValidator(ctx context.Context, r io.Reader, opts ValidateOptions, traced bool) *Validator {
	v := &Validator{ctx: ctx, opts: opts, rep: &Report{max: opts.MaxDiags}}
	if v.rep.max == 0 {
		v.rep.max = 100
	}
	if traced {
		v.span, _ = telemetry.Default().StartSpanCtx(ctx, "validate.trace")
	}
	v.chk = newRecordChecker(v.rep)
	rd, format, err := OpenReader(r, DecodeOptions{
		Mode:         Lenient,
		MaxLineBytes: opts.MaxLineBytes,
		OnError:      v.onError,
	})
	if err != nil {
		v.end(err)
		return v
	}
	v.rd, v.format = rd, format
	switch rd := rd.(type) {
	case *BinaryReader:
		v.bin = rd
	case *Reader:
		v.text = rd
	}
	h, err := rd.Header()
	if err != nil && err != io.EOF {
		if v.bin != nil {
			v.rep.add(0, SevError, CodeBlock, "unreadable binary preamble: %v", err)
			err = io.EOF
		}
		v.end(err)
		return v
	}
	v.rep.Header, v.rep.HasHeader = h, rd.HasHeader()
	if v.rep.HasHeader {
		v.chk.checkHeader(v.line(), h)
	}
	return v
}

// onError turns each decode failure into a finding.
func (v *Validator) onError(line int, text string, err error) {
	switch {
	case v.bin != nil:
		v.rep.add(line, SevError, CodeBlock, "damaged block dropped: %v", err)
	case err == ErrLineTooLong:
		v.rep.add(line, SevError, CodeLineLen, "%v", err)
	case strings.HasPrefix(text, "START"):
		v.sawBadHeader = true
		if _, herr := ParseHeader(text); herr == nil {
			v.rep.add(line, SevError, CodeHeader, "misplaced START header mid-stream")
		} else {
			v.rep.add(line, SevError, CodeHeader, "corrupt START line %q", text)
		}
	default:
		v.rep.add(line, SevError, CodeParse, "%v (%.60q)", err, text)
	}
}

// line is where the last record came from: the input line for text, the
// record ordinal for binary traces.
func (v *Validator) line() int {
	if v.text != nil {
		return v.text.Line()
	}
	return v.rep.Records
}

// Format returns the sniffed container format.
func (v *Validator) Format() FileFormat { return v.format }

// Header returns the trace header read when the Validator was opened.
func (v *Validator) Header() (Header, error) { return v.rep.Header, nil }

// HasHeader reports whether the trace carried a valid START header.
func (v *Validator) HasHeader() bool { return v.rep.HasHeader }

// BadLines returns how many damaged units the decoder skipped so far.
func (v *Validator) BadLines() int { return v.rd.BadLines() }

// NextBatch returns the next batch that passed validation (see Validator).
func (v *Validator) NextBatch() ([]Record, error) {
	for v.err == nil {
		if batch := v.step(); batch != nil {
			return batch, nil
		}
	}
	return nil, v.err
}

// Finish drains whatever input is left into the report, handing nothing
// on, and returns the report. The error is non-nil when the pass could
// not complete: an I/O failure or blown bad-line budget (as for Validate),
// or the context's error.
func (v *Validator) Finish() (*Report, error) {
	for v.err == nil {
		v.step()
	}
	if v.err != io.EOF {
		return v.rep, v.err
	}
	return v.rep, nil
}

// step decodes and checks one batch. It returns the batch when it may be
// handed on, and nil when it may not or the pass has ended.
func (v *Validator) step() []Record {
	if err := v.ctx.Err(); err != nil {
		v.end(err)
		return nil
	}
	errs := v.rep.errors
	batch, err := v.read()
	if err != nil {
		if err != io.EOF && v.bin != nil {
			// Framing damage is unrecoverable (the block chain is lost);
			// report it and end the pass instead of aborting glcheck.
			v.rep.add(0, SevError, CodeBlock, "binary stream unreadable: %v", err)
			err = io.EOF
		}
		v.end(err)
		return nil
	}
	if v.rep.errors > errs {
		v.failed = true
	}
	if v.failed {
		return nil
	}
	return batch
}

// read decodes the next batch and checks its records. Each text record is
// checked as soon as it is read, so findings keep their input order; the
// batch is the text Reader's own, in its decode state's record buffer. A
// text batch that ends in an error other than io.EOF is not returned, and
// the decode state goes back at once.
func (v *Validator) read() ([]Record, error) {
	if v.bin != nil {
		recs, err := v.bin.NextBatch()
		if err != nil {
			return nil, err
		}
		for i := range recs {
			v.rep.Records++
			v.chk.check(v.rep.Records, &recs[i], v.opts.SkipRegionChecks)
		}
		return recs, nil
	}
	recs, err := v.text.nextBatch(v.checkText)
	if err != nil && (err != io.EOF || len(recs) == 0) {
		v.text.end()
		return nil, err
	}
	return recs, nil
}

// checkText checks one text record, just read.
func (v *Validator) checkText(rec *Record) {
	v.rep.Records++
	v.chk.check(v.text.Line(), rec, v.opts.SkipRegionChecks)
}

// end closes the pass with err, io.EOF for a complete pass. A complete
// pass settles the end-of-trace findings and publishes the report; every
// pass ends its span.
func (v *Validator) end(err error) {
	v.err = err
	rep := v.rep
	if err == io.EOF {
		rep.BadLines = v.rd.BadLines()
		if v.bin != nil {
			if aerr := v.bin.AuxDamage(); aerr != nil {
				// Footer damage loses no records (readers fall back to a
				// frame scan), so it degrades the trace rather than
				// corrupting it.
				rep.add(0, SevWarn, CodeFooter, "damaged block-index footer ignored (records intact): %v", aerr)
			}
		}
		// A corrupt START already produced a header finding; only flag
		// traces that never attempted a header at all.
		if !rep.HasHeader && !v.sawBadHeader && rep.Records > 0 {
			rep.add(0, SevWarn, CodeNoHeader, "trace has no START header")
		}
		v.chk.finish()
		rep.publish()
	}
	if v.span != nil {
		v.span.SetAttr("records", strconv.Itoa(rep.Records))
		v.span.SetAttr("errors", strconv.Itoa(rep.Errors()))
		v.span.SetAttr("warnings", strconv.Itoa(rep.Warnings()))
		v.span.End()
		v.span = nil
	}
}

// publish adds the report's totals — records checked, bad lines, and
// finding counts per diagnostic class — to the default telemetry
// registry, so glcheck and the experiments self-check surface in the
// metrics manifest.
func (r *Report) publish() {
	reg := telemetry.Default()
	reg.Counter("validate.traces").Inc()
	reg.Counter("validate.records").Add(int64(r.Records))
	reg.Counter("validate.bad_lines").Add(int64(r.BadLines))
	reg.Counter("validate.errors").Add(int64(r.errors))
	reg.Counter("validate.warnings").Add(int64(r.warnings))
	for code, n := range r.byCode {
		reg.Counter("validate.diags." + code).Add(int64(n))
	}
}

// ValidateRecords runs the semantic checks over an already-decoded record
// slice — the in-process entry used by cmd/experiments to self-check
// generated traces. Line numbers in findings are record indices (1-based).
func ValidateRecords(h Header, hasHdr bool, recs []Record) *Report {
	rep := &Report{max: 100, Records: len(recs), Header: h, HasHeader: hasHdr}
	v := newRecordChecker(rep)
	if hasHdr {
		v.checkHeader(1, h)
	}
	for i := range recs {
		v.check(i+1, &recs[i], false)
	}
	v.finish()
	rep.publish()
	return rep
}

// symInfo tracks how a root symbol has been used, for referential checks.
type symInfo struct {
	line      int // first sighting
	vis       Visibility
	aggregate bool
	scalar    bool // seen without an access path
	mixed     bool // scalar/aggregate mix already reported
}

// recordChecker holds the running state of the semantic checks.
type recordChecker struct {
	rep       *Report
	syms      map[string]*symInfo
	maxThread int64
}

func newRecordChecker(rep *Report) *recordChecker {
	return &recordChecker{rep: rep, syms: make(map[string]*symInfo)}
}

// checkHeader validates a START line's content. Duplicate mid-stream
// START lines never reach here: the decoder rejects them as records and
// the OnError hook reports them as misplaced headers.
func (v *recordChecker) checkHeader(line int, h Header) {
	if h.PID <= 0 {
		v.rep.add(line, SevWarn, CodeHeader, "implausible PID %d in START header", h.PID)
	}
}

// check runs the per-record semantic checks.
func (v *recordChecker) check(line int, r *Record, skipRegions bool) {
	if !skipRegions {
		v.checkRegions(line, r)
	}
	v.checkOrder(line, r)
	v.checkSymRef(line, r)
}

// checkRegions verifies address plausibility against the memmodel layout:
// every access must land in a known region, not straddle a region
// boundary, and match its symbol's storage class.
func (v *recordChecker) checkRegions(line int, r *Record) {
	region := memmodel.RegionOf(r.Addr)
	if region == "unmapped" {
		if r.Addr >= memmodel.StackTop && r.End() <= synthLimit {
			v.rep.add(line, SevWarn, CodeRegion,
				"address %09x in the synthetic injected-variable window", r.Addr)
			return
		}
		v.rep.add(line, SevError, CodeRegion,
			"address %09x outside the data/heap/stack regions", r.Addr)
		return
	}
	if r.Size > 0 {
		if end := memmodel.RegionOf(r.End() - 1); end != region {
			v.rep.add(line, SevError, CodeRegion,
				"%d-byte access at %09x straddles the %s/%s region boundary",
				r.Size, r.Addr, region, end)
			return
		}
	}
	if !r.HasSym {
		return
	}
	switch {
	case r.Vis == Global && region == "stack":
		v.rep.add(line, SevWarn, CodeRegion,
			"global %s accessed at stack address %09x", r.Var.Root, r.Addr)
	case r.Vis == Local && region != "stack":
		v.rep.add(line, SevWarn, CodeRegion,
			"local %s accessed at %s address %09x", r.Var.Root, region, r.Addr)
	}
}

// checkOrder enforces the trace's ordering invariants: frame distances are
// non-negative and thread ids are introduced monotonically starting at 1
// (Gleipnir numbers threads 1, 2, ... in order of first access).
func (v *recordChecker) checkOrder(line int, r *Record) {
	if !r.HasSym || r.Vis != Local {
		return
	}
	if r.Frame < 0 {
		v.rep.add(line, SevError, CodeOrder, "negative frame distance %d for %s", r.Frame, r.Var.Root)
	}
	switch t := int64(r.Thread); {
	case t < 1:
		v.rep.add(line, SevError, CodeOrder, "thread id %d below 1 for %s", t, r.Var.Root)
	case t > v.maxThread+1:
		v.rep.add(line, SevError, CodeOrder,
			"thread %d introduced out of order (highest so far %d)", t, v.maxThread)
		v.maxThread = t
	case t == v.maxThread+1:
		v.maxThread = t
	}
}

// checkSymRef enforces per-symbol consistency: a root variable keeps one
// storage class for the whole trace, and its scope tag agrees with the
// presence of an access path.
func (v *recordChecker) checkSymRef(line int, r *Record) {
	if !r.HasSym {
		return
	}
	if r.Aggregate && len(r.Var.Path) == 0 {
		v.rep.add(line, SevWarn, CodeSymRef,
			"aggregate scope %s for %s without an access path", r.ScopeCode(), r.Var.Root)
	}
	if !r.Aggregate && len(r.Var.Path) > 0 {
		v.rep.add(line, SevWarn, CodeSymRef,
			"scalar scope %s for %s with access path %s", r.ScopeCode(), r.Var.Root, r.Var)
	}
	info, ok := v.syms[r.Var.Root]
	if !ok {
		v.syms[r.Var.Root] = &symInfo{
			line: line, vis: r.Vis, aggregate: r.Aggregate, scalar: !r.Aggregate,
		}
		return
	}
	if info.vis != r.Vis {
		v.rep.add(line, SevError, CodeSymRef,
			"%s seen as both %c and %c scope (first at line %d)",
			r.Var.Root, byte(info.vis), byte(r.Vis), info.line)
		return
	}
	if r.Aggregate {
		info.aggregate = true
	} else {
		info.scalar = true
	}
	if info.aggregate && info.scalar && !info.mixed {
		v.rep.add(line, SevWarn, CodeSymRef,
			"%s accessed both as scalar and as aggregate (first at line %d)",
			r.Var.Root, info.line)
		info.mixed = true
	}
}

// finish runs end-of-trace checks (none yet beyond counters; kept as the
// hook for stream-level invariants).
func (v *recordChecker) finish() {}
