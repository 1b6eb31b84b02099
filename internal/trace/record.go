// Package trace implements the Gleipnir memory-trace format: one annotated
// tuple per data access, as produced by the Gleipnir Valgrind plug-in and
// consumed by the modified DineroIV simulator and the transformation engine.
//
// A trace file begins with a "START PID <n>" header followed by one record
// per line. Record layout (whitespace separated):
//
//	<op> <addr> <size> <func>                      -- no symbol information
//	<op> <addr> <size> <func> GV <var>             -- global scalar
//	<op> <addr> <size> <func> GS <var-path>        -- global aggregate member
//	<op> <addr> <size> <func> LV <frame> <thread> <var>
//	<op> <addr> <size> <func> LS <frame> <thread> <var-path>
//
// where op is L (load), S (store), M (modify) or X (miscellaneous), addr is
// a zero-padded 9-digit hex virtual address, and var-path is a C-style
// access expression such as glStructArray[0].myArray[0]. Globals omit frame
// and thread ("there is no need to identify the frame of the corresponding
// variable"); locals carry the frame id (0 = the executing function's own
// frame, 1 = the caller's, …) and the thread id.
//
// Records of one spelling share a Site holding the function, the access
// expression and, for a local, the frame and thread columns; records carry
// no symbol ids: dinero resolves ids once per site.
package trace

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"tracedst/internal/ctype"
)

// Op is the access type of a trace record.
type Op byte

// Access types, matching Gleipnir's single-letter codes.
const (
	Load   Op = 'L' // data read
	Store  Op = 'S' // data write
	Modify Op = 'M' // read-modify-write
	Misc   Op = 'X' // miscellaneous instruction
)

// Valid reports whether op is one of the defined access types.
func (o Op) Valid() bool {
	switch o {
	case Load, Store, Modify, Misc:
		return true
	}
	return false
}

// String returns the single-letter code.
func (o Op) String() string { return string(byte(o)) }

// Visibility distinguishes global (data segment) from local (stack) symbols.
type Visibility byte

// Symbol visibilities.
const (
	Global Visibility = 'G'
	Local  Visibility = 'L'
)

// Site is where an access happened in the program: the function executing
// it, the variable it touched, spelled as an access expression, and for a
// local the frame and thread that own the variable. A trace names the same
// few thousand sites over and over, so records share them through one
// pointer instead of each carrying the names inline — the paper's
// Transformation 2 (move the fields a hot loop rarely reads out of line)
// applied to the record itself. The frame and thread are the annotation
// Gleipnir writes after the scope column; only the codecs, the validator,
// the tracer and the transformation engine read them.
//
// A site is immutable: it is never written once a record holds it, so any
// number of records, batches and goroutines may share one, as they share an
// Interner's paths. Its fields are read through Func, Var, Frame and
// Thread, which treat a nil site as one naming nothing, so a zero Record
// needs no site.
type Site struct {
	fn string
	v  ctype.AccessExpr
	// frame and thread are a local's stack-frame distance and thread id;
	// 0 for a global or a record without symbol information.
	frame, thread int32
}

// NewSite returns the site of function fn accessing v, with no frame or
// thread: the site of a global, or of a record without symbol information.
// The site keeps v's path, which must not be written afterwards.
func NewSite(fn string, v ctype.AccessExpr) *Site { return &Site{fn: fn, v: v} }

// NewLocalSite returns the site of function fn accessing v, a local of the
// frame at distance frame from fn's own (0 is fn's own frame, 1 its
// caller's) on thread thread. The site keeps v's path, which must not be
// written afterwards.
func NewLocalSite(fn string, v ctype.AccessExpr, frame, thread int32) *Site {
	return &Site{fn: fn, v: v, frame: frame, thread: thread}
}

// Func returns the function executing the access ("" for a nil site).
func (s *Site) Func() string {
	if s == nil {
		return ""
	}
	return s.fn
}

// Var returns the accessed variable: root name plus access path (the zero
// expression for a nil site). The path is shared and must not be written.
func (s *Site) Var() ctype.AccessExpr {
	if s == nil {
		return ctype.AccessExpr{}
	}
	return s.v
}

// Frame returns the stack-frame distance of a local: 0 is the executing
// function's own frame, 1 its caller's, and so on (0 for a nil site).
func (s *Site) Frame() int32 {
	if s == nil {
		return 0
	}
	return s.frame
}

// Thread returns the id of the thread that owns a local (Gleipnir numbers
// threads from 1; 0 for a nil site).
func (s *Site) Thread() int32 {
	if s == nil {
		return 0
	}
	return s.thread
}

// equal reports whether two sites name the same function, variable, frame
// and thread.
func (s *Site) equal(t *Site) bool {
	if s == t {
		return true
	}
	sv, tv := s.Var(), t.Var()
	return s.Func() == t.Func() && s.Frame() == t.Frame() && s.Thread() == t.Thread() &&
		sv.Root == tv.Root && sv.Path.Equal(tv.Path)
}

// Record is a single trace line.
//
// The one-byte fields and the size lead the struct so they pack into one
// 8-byte header ahead of the address and the site: records are the unit
// every pipeline stage copies, and with the names, the frame and the
// thread outlined into the shared Site a Record is 24 bytes holding one
// pointer. Size, and the site's frame and thread, are 32-bit in every
// trace format this package reads; the decoders reject a value that does
// not fit (see MaxSize) instead of truncating it.
type Record struct {
	Op Op
	// HasSym reports whether the debug parser could associate the access
	// with a program variable; when false Vis, Aggregate and the site's
	// Var, Frame and Thread are meaningless (e.g. return-address pushes,
	// unannotated stack traffic).
	HasSym bool
	// Vis is G for globals, L for locals.
	Vis Visibility
	// Aggregate is true when the accessed element is part of a structure or
	// array (the trace spells the scope GS/LS instead of GV/LV).
	Aggregate bool
	// Size is the number of bytes accessed, in [0, MaxSize].
	Size int32

	Addr uint64
	// Site names the function executing the access (always present in a
	// trace line; "" for a nil site), the accessed variable and, for a
	// local, the frame and thread that own it.
	Site *Site
}

// recordJSON is a Record's JSON form: its fields in the order a Record held
// them when it kept its names, frame and thread inline, Func and Var last.
// Stores keep records as JSON (figure diffs), so entries read the same
// whichever layout wrote them; the FuncID and VarID an older layout wrote
// are ignored.
type recordJSON struct {
	Op        Op
	HasSym    bool
	Vis       Visibility
	Aggregate bool
	Frame     int32
	Thread    int32
	Size      int32
	Addr      uint64
	Func      string
	Var       ctype.AccessExpr
}

// MarshalJSON encodes r with its site's fields inline (see recordJSON).
func (r Record) MarshalJSON() ([]byte, error) {
	return json.Marshal(recordJSON{
		Op: r.Op, HasSym: r.HasSym, Vis: r.Vis, Aggregate: r.Aggregate,
		Frame: r.Site.Frame(), Thread: r.Site.Thread(), Size: r.Size, Addr: r.Addr,
		Func: r.Site.Func(), Var: r.Site.Var(),
	})
}

// UnmarshalJSON decodes what MarshalJSON encodes, giving r a site of its
// own.
func (r *Record) UnmarshalJSON(data []byte) error {
	var j recordJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*r = Record{
		Op: j.Op, HasSym: j.HasSym, Vis: j.Vis, Aggregate: j.Aggregate,
		Size: j.Size, Addr: j.Addr,
		Site: NewLocalSite(j.Func, j.Var, j.Frame, j.Thread),
	}
	return nil
}

// MaxSize is the largest access size a Record holds. Decoders reject a
// larger size instead of truncating it.
const MaxSize = math.MaxInt32

// ScopeCode returns the two-letter scope tag (GV, GS, LV, LS) or "" when the
// record carries no symbol information.
func (r *Record) ScopeCode() string {
	if !r.HasSym {
		return ""
	}
	b := [2]byte{byte(r.Vis), 'V'}
	if r.Aggregate {
		b[1] = 'S'
	}
	return string(b[:])
}

// String formats the record exactly as Gleipnir writes it.
func (r *Record) String() string { return string(r.AppendText(nil)) }

// Equal reports whether two records are identical, including metadata.
// Sites compare by what they name, frame and thread included, not by
// identity.
func (r *Record) Equal(s *Record) bool {
	if r.Op != s.Op || r.Addr != s.Addr || r.Size != s.Size || r.HasSym != s.HasSym {
		return false
	}
	if !r.HasSym {
		return r.Site.Func() == s.Site.Func()
	}
	return r.Vis == s.Vis && r.Aggregate == s.Aggregate && r.Site.equal(s.Site)
}

// End returns the first address past the accessed bytes.
func (r *Record) End() uint64 { return r.Addr + uint64(r.Size) }

// IsWrite reports whether the access writes memory (stores and modifies).
func (r *Record) IsWrite() bool { return r.Op == Store || r.Op == Modify }

// IsRead reports whether the access reads memory (loads and modifies).
func (r *Record) IsRead() bool { return r.Op == Load || r.Op == Modify }

// ParseRecord parses one trace line. It rejects the START header (use
// ParseHeader) and malformed lines. It is a convenience wrapper around
// ParseRecordBytes, which is the canonical grammar.
func ParseRecord(line string) (Record, error) {
	return parseRecordBytes([]byte(line), nil)
}

// Header is the trace-file preamble.
type Header struct {
	PID int
}

// String formats the header line.
func (h Header) String() string { return fmt.Sprintf("START PID %d", h.PID) }

// ParseHeader parses a "START PID <n>" line.
func ParseHeader(line string) (Header, error) {
	var h Header
	if _, err := fmt.Sscanf(strings.TrimSpace(line), "START PID %d", &h.PID); err != nil {
		return h, fmt.Errorf("trace: bad header %q", line)
	}
	return h, nil
}
