// Package tracer is the Gleipnir equivalent: it listens to the miniC
// interpreter's memory events and renders each one as an annotated trace
// line, using the interpreter's symbol table the way Gleipnir uses
// Valgrind's debug-information parser. The result is a trace.Header plus a
// stream of trace.Records in exactly the format of the paper's listings.
package tracer

import (
	"context"
	"fmt"
	"io"
	"time"

	"tracedst/internal/ctype"
	"tracedst/internal/minic"
	"tracedst/internal/slab"
	"tracedst/internal/symtab"
	"tracedst/internal/telemetry"
	"tracedst/internal/trace"
)

// Options configure a trace collection.
type Options struct {
	// PID is written into the START header (a fixed fake pid keeps traces
	// reproducible; Gleipnir writes the real one).
	PID int
	// Thread is the thread id recorded on local accesses. Gleipnir numbers
	// threads from 1. Zero means 1.
	Thread int32
	// TraceAll starts with instrumentation enabled, for programs that do
	// not use the GLEIPNIR_*_INSTRUMENTATION markers.
	TraceAll bool
	// MaxRecords, when positive, stops collecting after that many records
	// (later events count as Dropped) — a safety cap for long-running
	// programs traced into memory.
	MaxRecords int
	// MaxSteps, when positive, bounds the number of statements the traced
	// program may execute; exceeding it fails the run with an error
	// matching minic.ErrBudgetExceeded instead of hanging. Zero keeps the
	// interpreter's default limit.
	MaxSteps int64
	// Ctx, when non-nil, lets a deadline or cancellation interrupt the
	// traced program mid-execution (the interpreter polls it periodically).
	Ctx context.Context
}

// chunkRecords is the capacity of a full record chunk: one block of a
// binary trace, so a listener that drains Records every block never sees
// a chunk sealed.
const chunkRecords = trace.DefaultBlockRecords

// minChunkRecords is the capacity the first chunk starts at.
const minChunkRecords = 64

// Tracer converts interpreter events to trace records. Create it, then the
// interpreter with the tracer as its listener, then Attach the interpreter
// so the tracer can consult its symbol table.
//
// Records are collected in chunks. The first grows by doubling up to
// chunkRecords, so a short trace allocates about what it keeps; from then
// on a full chunk is sealed and a new one begins, so no record is copied
// until RunProgram joins the chunks once, at exact size, when the run
// ends.
type Tracer struct {
	opts    Options
	interp  *minic.Interp
	enabled bool

	// Records holds, during a run, the records collected since the last
	// chunk was sealed, and after RunProgram the whole trace. A listener
	// may read and truncate it right after each Access: if it does so at
	// least every chunkRecords records, as benchrun's does every block, no
	// chunk is sealed and it sees every record.
	Records []trace.Record
	// sealed holds the full chunks before Records, oldest first, and
	// nsealed counts their records.
	sealed  [][]trace.Record
	nsealed int
	// Dropped counts events suppressed while instrumentation was off.
	Dropped int

	// sites memoizes the sites Access made, one per slot chosen by
	// address, as symtab chooses paths, and fnSite the last one naming no
	// variable (see site); siteSlab is the storage they are carved from.
	sites    []*trace.Site
	fnSite   *trace.Site
	siteSlab slab.Slab[trace.Site]
}

var _ minic.Listener = (*Tracer)(nil)

// New returns a Tracer with the given options.
func New(opts Options) *Tracer {
	if opts.Thread == 0 {
		opts.Thread = 1
	}
	if opts.PID == 0 {
		opts.PID = 13063 // the paper's listing 2 pid; any fixed value works
	}
	return &Tracer{opts: opts, enabled: opts.TraceAll}
}

// Attach binds the tracer to the interpreter whose events it receives.
func (t *Tracer) Attach(in *minic.Interp) { t.interp = in }

// Header returns the trace file header.
func (t *Tracer) Header() trace.Header { return trace.Header{PID: t.opts.PID} }

// Instrument implements minic.Listener.
func (t *Tracer) Instrument(on bool) { t.enabled = on }

// Access implements minic.Listener: it annotates the raw event with debug
// information and appends a trace record.
func (t *Tracer) Access(op minic.AccessOp, addr uint64, size int64, fn string, depth int) {
	if !t.enabled {
		t.Dropped++
		return
	}
	if t.opts.MaxRecords > 0 && t.count() >= t.opts.MaxRecords {
		t.Dropped++
		return
	}
	// The memory model bounds every object the interpreter can address,
	// and so the access size and the call depth, far below 2^31.
	rec := trace.Record{
		Op:   trace.Op(op),
		Addr: addr,
		Size: int32(size),
	}
	var v ctype.AccessExpr
	var frame, thread int32
	if t.interp != nil {
		if ref, ok := t.interp.Syms.Describe(addr, depth); ok && !hideSymbol(op, ref) {
			rec.HasSym = true
			rec.Aggregate = ref.Aggregate
			v = ref.Expr
			switch ref.Sym.Kind {
			case symtab.KindLocal:
				rec.Vis = trace.Local
				frame, thread = int32(ref.FrameDistance), t.opts.Thread
			default:
				// Globals and heap blocks are globally visible: no frame or
				// thread column ("there is no need to identify the frame of
				// the corresponding variable").
				rec.Vis = trace.Global
			}
		}
	}
	rec.Site = t.site(addr, fn, v, frame, thread)
	if len(t.Records) == cap(t.Records) {
		t.grow()
	}
	t.Records = append(t.Records, rec)
}

// site returns the site of fn accessing v at addr in frame and thread (0
// but for a local): the one addr's memo slot holds for the same function,
// variable, frame and thread, else a new one carved from the slab, which
// takes the slot. The memo grows, empty, to the symbol table's MemoSlots
// when the program's data has outgrown it. An access without symbol
// information names only its function, whatever its address, so one its
// slot misses takes the last such site if it names the same function.
func (t *Tracer) site(addr uint64, fn string, v ctype.AccessExpr, frame, thread int32) *trace.Site {
	var m **trace.Site
	if t.sites != nil {
		m = &t.sites[(addr>>2)&uint64(len(t.sites)-1)]
		if s := *m; s != nil && s.Func() == fn && s.Frame() == frame && s.Thread() == thread {
			if sv := s.Var(); sv.Root == v.Root && sv.Path.Equal(v.Path) {
				return s
			}
		}
	}
	var syms *symtab.Table
	if t.interp != nil {
		syms = t.interp.Syms
	}
	if n := syms.MemoSlots(); n > len(t.sites) {
		t.sites = make([]*trace.Site, n)
		m = &t.sites[(addr>>2)&uint64(n-1)]
	}
	switch {
	case v.Root != "":
		*m = t.siteSlab.New(*trace.NewLocalSite(fn, v, frame, thread))
	case t.fnSite != nil && t.fnSite.Func() == fn:
		*m = t.fnSite
	default:
		*m = t.siteSlab.New(*trace.NewSite(fn, v))
		t.fnSite = *m
	}
	return *m
}

// count returns the number of records collected and not drained.
func (t *Tracer) count() int { return t.nsealed + len(t.Records) }

// grow makes room in Records for one more record: it doubles the first
// chunk up to chunkRecords, and seals a full chunk.
func (t *Tracer) grow() {
	if c := cap(t.Records); c < chunkRecords {
		next := make([]trace.Record, len(t.Records), min(max(2*c, minChunkRecords), chunkRecords))
		copy(next, t.Records)
		t.Records = next
		return
	}
	t.sealed = append(t.sealed, t.Records)
	t.nsealed += len(t.Records)
	t.Records = make([]trace.Record, 0, chunkRecords)
}

// join gathers the sealed chunks and Records into one slice of exact size.
func (t *Tracer) join() {
	if len(t.sealed) == 0 {
		return
	}
	all := make([]trace.Record, 0, t.count())
	for i, c := range t.sealed {
		all = append(all, c...)
		t.sealed[i] = nil // the collector may take it back during the join
	}
	t.Records = append(all, t.Records...)
	t.sealed, t.nsealed = nil, 0
}

// hideSymbol reproduces a Gleipnir quirk: the read-back of the Valgrind
// client-request result has no debug info, so the load that follows the
// "_zzq_result" store is printed unannotated (paper listing 2 line 3).
func hideSymbol(op minic.AccessOp, ref symtab.Ref) bool {
	return op == minic.OpLoad && ref.Sym.Name == "_zzq_result"
}

// WriteTo writes the collected trace in Gleipnir format.
func (t *Tracer) WriteTo(w io.Writer) (int64, error) {
	tw := trace.NewWriter(w)
	if err := tw.WriteHeader(t.Header()); err != nil {
		return 0, err
	}
	for _, c := range t.sealed {
		if err := writeRecords(tw, c); err != nil {
			return 0, err
		}
	}
	if err := writeRecords(tw, t.Records); err != nil {
		return 0, err
	}
	if err := tw.Flush(); err != nil {
		return 0, err
	}
	return int64(tw.Records()), nil
}

func writeRecords(tw *trace.Writer, recs []trace.Record) error {
	for i := range recs {
		if err := tw.Write(&recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Result bundles everything a trace collection produces.
type Result struct {
	Header  trace.Header
	Records []trace.Record
	// Interp is the finished interpreter; its symbol table still holds the
	// globals (frames are gone) and its address space the final memory.
	Interp *minic.Interp
	// Return is main's return value.
	Return int64
}

// Run parses and executes a miniC program, collecting its Gleipnir trace.
// defines are -D style macro definitions (e.g. {"LEN": "16"}).
func Run(src string, defines map[string]string, opts Options) (*Result, error) {
	prog, err := minic.Parse(src, defines)
	if err != nil {
		return nil, err
	}
	return RunProgram(prog, opts)
}

// RunProgram executes an already-parsed program, collecting its trace.
// Each run publishes its cost to the default telemetry registry: steps
// executed, records emitted/dropped and the collection rate.
func RunProgram(prog *minic.Program, opts Options) (*Result, error) {
	t := New(opts)
	in := minic.NewInterp(prog, t)
	if opts.MaxSteps > 0 {
		in.StepLimit = opts.MaxSteps
	}
	if opts.Ctx != nil {
		in.SetContext(opts.Ctx)
	}
	t.Attach(in)
	reg := telemetry.Default()
	sp := reg.StartSpan("tracer/run")
	ret, err := in.Run()
	wall := sp.End()
	reg.Counter("tracer.programs").Inc()
	reg.Counter("tracer.steps").Add(in.Steps())
	reg.Counter("tracer.records").Add(int64(t.count()))
	reg.Counter("tracer.dropped").Add(int64(t.Dropped))
	if err != nil {
		reg.Counter("tracer.errors").Inc()
		return nil, fmt.Errorf("tracer: %w", err)
	}
	t.join()
	if rate := recordsPerSec(len(t.Records), wall); rate > 0 {
		telemetry.L().Debug("trace collected",
			"records", len(t.Records), "steps", in.Steps(),
			"dropped", t.Dropped, "records_per_sec", int64(rate))
	}
	return &Result{
		Header:  t.Header(),
		Records: t.Records,
		Interp:  in,
		Return:  ret,
	}, nil
}

// recordsPerSec guards the rate computation against a sub-resolution wall
// clock reading.
func recordsPerSec(n int, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(n) / wall.Seconds()
}
