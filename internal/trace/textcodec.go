// Zero-allocation text codec: the byte-level record parser and renderer
// behind Reader and Writer. ParseRecordBytes is the canonical grammar for a
// trace line (ParseRecord delegates to it); an Interner adds per-stream
// string caches so that steady-state decoding of a trace with a bounded
// symbol population performs no per-record allocations at all.
package trace

import (
	"fmt"
	"strconv"

	"tracedst/internal/ctype"
)

// ParseRecordBytes parses one trace line held as bytes. It accepts exactly
// the grammar ParseRecord documents and allocates only the record's own
// site and its strings; use an Interner to amortize those across a stream.
func ParseRecordBytes(line []byte) (Record, error) {
	return parseRecordBytes(line, nil)
}

// AppendText appends the record, formatted exactly as Gleipnir writes it
// (and exactly as String returns it), to dst and returns the extended
// slice. It performs no allocations beyond growing dst.
func (r *Record) AppendText(dst []byte) []byte {
	dst = append(dst, byte(r.Op), ' ')
	dst = appendHex9(dst, r.Addr)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(r.Size), 10)
	dst = append(dst, ' ')
	dst = append(dst, r.Site.Func()...)
	if !r.HasSym {
		return dst
	}
	sc := byte('V')
	if r.Aggregate {
		sc = 'S'
	}
	dst = append(dst, ' ', byte(r.Vis), sc)
	if r.Vis == Local {
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(r.Site.Frame()), 10)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(r.Site.Thread()), 10)
	}
	dst = append(dst, ' ')
	return r.Site.Var().AppendText(dst)
}

// appendHex9 appends addr as lowercase hex, zero-padded to at least 9
// digits (the Gleipnir fixed-width address column).
func appendHex9(dst []byte, addr uint64) []byte {
	var tmp [16]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = "0123456789abcdef"[addr&0xf]
		addr >>= 4
		if addr == 0 {
			break
		}
	}
	for len(tmp)-i < 9 {
		i--
		tmp[i] = '0'
	}
	return append(dst, tmp[i:]...)
}

// maxRecordFields is the widest legal record: op addr size func scope frame
// thread var. One extra slot catches trailing junk without scanning it.
const maxRecordFields = 8

// splitFields splits line on ASCII whitespace into at most len(dst) fields,
// returning the field count, or -1 when there are more than len(dst)-1
// fields (too many to be a record).
func splitFields(line []byte, dst *[maxRecordFields + 1][]byte) int {
	n := 0
	i := 0
	for {
		for i < len(line) && isASCIISpace(line[i]) {
			i++
		}
		if i == len(line) {
			return n
		}
		if n == len(dst) {
			return -1
		}
		j := i
		for j < len(line) && !isASCIISpace(line[j]) {
			j++
		}
		dst[n] = line[i:j]
		n++
		i = j
	}
}

func isASCIISpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f'
}

// parseRecordBytes is the shared parser; in == nil allocates fresh strings.
func parseRecordBytes(line []byte, in *Interner) (Record, error) {
	var r Record
	var fields [maxRecordFields + 1][]byte
	nf := splitFields(line, &fields)
	if nf < 0 {
		return r, fmt.Errorf("trace: trailing fields in %q", line)
	}
	if nf < 4 {
		return r, fmt.Errorf("trace: short record %q", line)
	}
	if len(fields[0]) != 1 {
		return r, fmt.Errorf("trace: bad op %q in %q", fields[0], line)
	}
	r.Op = Op(fields[0][0])
	if !r.Op.Valid() {
		return r, fmt.Errorf("trace: bad op %q in %q", fields[0], line)
	}
	addr, ok := parseHex(fields[1])
	if !ok {
		return r, fmt.Errorf("trace: bad address %q in %q", fields[1], line)
	}
	r.Addr = addr
	size, ok := parseInt32(fields[2])
	if !ok || size < 0 {
		return r, fmt.Errorf("trace: bad size %q in %q", fields[2], line)
	}
	r.Size = size
	fn := fields[3]
	if nf == 4 {
		return r, r.setSite(in, fn, nil, 0, 0, line)
	}
	scope := fields[4]
	if len(scope) != 2 || (scope[0] != 'G' && scope[0] != 'L') || (scope[1] != 'V' && scope[1] != 'S') {
		return r, fmt.Errorf("trace: bad scope %q in %q", scope, line)
	}
	r.HasSym = true
	r.Vis = Visibility(scope[0])
	r.Aggregate = scope[1] == 'S'
	varIdx := 5
	var frame, thread int32
	if r.Vis == Local {
		if nf != 8 {
			return r, fmt.Errorf("trace: local record needs frame, thread, var: %q", line)
		}
		if frame, ok = parseInt32(fields[5]); !ok {
			return r, fmt.Errorf("trace: bad frame %q in %q", fields[5], line)
		}
		if thread, ok = parseInt32(fields[6]); !ok {
			return r, fmt.Errorf("trace: bad thread %q in %q", fields[6], line)
		}
		varIdx = 7
	} else if nf != 6 {
		return r, fmt.Errorf("trace: expected variable name at end of %q", line)
	}
	return r, r.setSite(in, fn, fields[varIdx], frame, thread, line)
}

// setSite gives r the site of function fn accessing the variable spelled
// v (nil for a record without symbol information) in frame and thread (0
// but for a local), shared through in, or a site of its own when in is
// nil.
func (r *Record) setSite(in *Interner, fn, v []byte, frame, thread int32, line []byte) error {
	var err error
	if in != nil {
		r.Site, err = in.site(fn, v, frame, thread)
	} else {
		var x ctype.AccessExpr
		if v != nil {
			x, err = ctype.ParseAccess(string(v))
		}
		r.Site = NewLocalSite(string(fn), x, frame, thread)
	}
	if err != nil {
		r.Site = nil
		return fmt.Errorf("trace: %v in %q", err, line)
	}
	return nil
}

// parseHex parses an unsigned hex field (no 0x prefix, no sign).
func parseHex(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 16 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}

// parseInt32 parses a decimal integer field with an optional leading minus
// (frame/thread fields historically admitted negative values; semantic
// checks flag them downstream). A value outside the int32 range is
// rejected, never truncated.
func parseInt32(b []byte) (int32, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	if b[0] == '-' {
		neg = true
		b = b[1:]
		if len(b) == 0 {
			return 0, false
		}
	}
	if len(b) > 19 {
		return 0, false
	}
	var v int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
		if v < 0 {
			return 0, false
		}
	}
	if neg {
		v = -v
	}
	if v != int64(int32(v)) {
		return 0, false
	}
	return int32(v), true
}
