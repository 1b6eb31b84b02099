package trace

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"tracedst/internal/ctype"
)

// Din conversion: the classic DineroIV "din" input format, one access per
// line: "<label> <hex-address>", label 0 = read, 1 = write, 2 = instruction
// fetch. Exporting lets traces collected here drive an unmodified DineroIV
// binary (at the cost of all Gleipnir metadata); importing lets din traces
// from other tools run through this simulator.

// WriteDin writes records in din format. Modify records expand to a read
// followed by a write; Misc records are skipped (din has no equivalent).
// It returns the number of din lines written.
func WriteDin(w io.Writer, recs []Record) (int, error) {
	bw := bufio.NewWriter(w)
	n := 0
	emit := func(label int, addr uint64) error {
		n++
		_, err := fmt.Fprintf(bw, "%d %x\n", label, addr)
		return err
	}
	for i := range recs {
		r := &recs[i]
		var err error
		switch r.Op {
		case Load:
			err = emit(0, r.Addr)
		case Store:
			err = emit(1, r.Addr)
		case Modify:
			if err = emit(0, r.Addr); err == nil {
				err = emit(1, r.Addr)
			}
		}
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// dinSite is the site of every record ReadDin makes: din names no
// function or variable, so the records say "din".
var dinSite = NewSite("din", ctype.AccessExpr{})

// ReadDin parses a din-format stream into records. Reads become Loads,
// writes Stores, instruction fetches are mapped to Misc (this simulator
// does not model an instruction cache). Sizes default to 4 bytes (din
// carries none) and no metadata is attached.
func ReadDin(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	var recs []Record
	lineNo := 0
	for sc.Scan() {
		lineNo++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var label int
		var addr uint64
		if _, err := fmt.Sscanf(text, "%d %x", &label, &addr); err != nil {
			return nil, fmt.Errorf("trace: din line %d: %q: %v", lineNo, text, err)
		}
		rec := Record{Addr: addr, Size: 4, Site: dinSite}
		switch label {
		case 0:
			rec.Op = Load
		case 1:
			rec.Op = Store
		case 2:
			rec.Op = Misc
		default:
			return nil, fmt.Errorf("trace: din line %d: bad label %d", lineNo, label)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}
