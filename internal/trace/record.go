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
package trace

import (
	"fmt"
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

// Record is a single trace line.
//
// The one-byte fields and FuncID lead the struct so they share one word:
// records are the unit every pipeline stage copies, and the packing keeps
// a Record at 104 bytes instead of 112.
type Record struct {
	Op Op
	// HasSym reports whether the debug parser could associate the access
	// with a program variable; when false Vis, Aggregate, Frame, Thread,
	// Var and VarID are meaningless (e.g. return-address pushes,
	// unannotated stack traffic).
	HasSym bool
	// Vis is G for globals, L for locals.
	Vis Visibility
	// Aggregate is true when the accessed element is part of a structure or
	// array (the trace spells the scope GS/LS instead of GV/LV).
	Aggregate bool
	// FuncID and VarID are interned ids for Func and Var.Root, filled by
	// InternRecords against a SymTab. Zero means "not interned"; VarID is
	// always zero when HasSym is false. They are derived metadata: String,
	// Equal and the parsers ignore them.
	FuncID SymID

	Addr uint64
	Size int64
	// Func is the function executing the access (always present).
	Func string

	// Frame is the stack-frame distance for locals: 0 is the executing
	// function's own frame, 1 its caller's, and so on. Unused for globals.
	Frame int
	// Thread is the id of the thread that executed the access (locals only;
	// Gleipnir numbers threads from 1).
	Thread int
	// Var is the accessed variable: root name plus access path.
	Var   ctype.AccessExpr
	VarID SymID
}

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
func (r *Record) Equal(s *Record) bool {
	if r.Op != s.Op || r.Addr != s.Addr || r.Size != s.Size || r.Func != s.Func ||
		r.HasSym != s.HasSym {
		return false
	}
	if !r.HasSym {
		return true
	}
	return r.Vis == s.Vis && r.Aggregate == s.Aggregate &&
		r.Frame == s.Frame && r.Thread == s.Thread &&
		r.Var.Root == s.Var.Root && r.Var.Path.Equal(s.Var.Path)
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
