package trace

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"tracedst/internal/ctype"
)

// TestRecordSize pins the packed field order: the four one-byte fields,
// then Size at 32 bits, fill one 8-byte header ahead of the address and
// the site, and the site is the one field holding a pointer. Every
// pipeline stage copies records, so a reorder or a widened field that
// reopens padding costs every stage, and each pointer costs a write
// barrier per copy and a word the collector scans.
func TestRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got != 24 {
		t.Errorf("sizeof(Record) = %d, want 24", got)
	}
	var ptrs []string
	rt := reflect.TypeOf(Record{})
	for i := 0; i < rt.NumField(); i++ {
		switch f := rt.Field(i); f.Type.Kind() {
		case reflect.Pointer, reflect.String, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.Func, reflect.Chan, reflect.Struct, reflect.Array:
			ptrs = append(ptrs, f.Name)
		}
	}
	if len(ptrs) != 1 || ptrs[0] != "Site" {
		t.Errorf("fields that may hold pointers: %v, want [Site]", ptrs)
	}
}

func TestParseRecordGlobalScalar(t *testing.T) {
	// Listing 2 line 4 of the paper.
	r, err := ParseRecord("S 000601040 4 main GV glScalar")
	if err != nil {
		t.Fatal(err)
	}
	if r.Op != Store || r.Addr != 0x601040 || r.Size != 4 || r.Site.Func() != "main" {
		t.Errorf("got %+v", r)
	}
	if !r.HasSym || r.Vis != Global || r.Aggregate || r.Site.Var().Root != "glScalar" {
		t.Errorf("symbol fields: %+v", r)
	}
	if got := r.String(); got != "S 000601040 4 main GV glScalar" {
		t.Errorf("round trip = %q", got)
	}
}

func TestParseRecordLocalScalar(t *testing.T) {
	r, err := ParseRecord("S 7ff0001bc 4 main LV 0 1 lcScalar")
	if err != nil {
		t.Fatal(err)
	}
	if r.Vis != Local || r.Site.Frame() != 0 || r.Site.Thread() != 1 || r.Site.Var().Root != "lcScalar" {
		t.Errorf("got %+v", r)
	}
	if r.String() != "S 7ff0001bc 4 main LV 0 1 lcScalar" {
		t.Errorf("round trip = %q", r.String())
	}
}

func TestParseRecordGlobalAggregate(t *testing.T) {
	// Listing 2 line 29.
	r, err := ParseRecord("S 0006010e8 4 foo GS glStructArray[0].myArray[0]")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Aggregate || r.Vis != Global {
		t.Errorf("scope: %+v", r)
	}
	wantPath := ctype.Path{{Index: 0}, {Field: "myArray"}, {Index: 0}}
	if r.Site.Var().Root != "glStructArray" || !r.Site.Var().Path.Equal(wantPath) {
		t.Errorf("var = %v", r.Site.Var())
	}
	if r.ScopeCode() != "GS" {
		t.Errorf("scope code = %q", r.ScopeCode())
	}
}

func TestParseRecordCallerFrame(t *testing.T) {
	// Listing 2 line 34: foo touches main's local through a pointer (frame 1).
	r, err := ParseRecord("S 7ff000060 8 foo LS 1 1 lcStrcArray[0].d1")
	if err != nil {
		t.Fatal(err)
	}
	if r.Site.Frame() != 1 || r.Site.Func() != "foo" || !r.Aggregate {
		t.Errorf("got %+v", r)
	}
}

func TestParseRecordNoSymbol(t *testing.T) {
	// Listing 2 line 3: an unannotated access (no debug info).
	r, err := ParseRecord("L 7ff0001b0 8 main")
	if err != nil {
		t.Fatal(err)
	}
	if r.HasSym {
		t.Errorf("expected no symbol: %+v", r)
	}
	if r.ScopeCode() != "" {
		t.Errorf("scope code = %q", r.ScopeCode())
	}
	if r.String() != "L 7ff0001b0 8 main" {
		t.Errorf("round trip = %q", r.String())
	}
}

func TestParseRecordModifyAndMisc(t *testing.T) {
	for _, line := range []string{
		"M 7ff0001b8 4 main LV 0 1 i",
		"X 7ff0001b8 4 main",
	} {
		r, err := ParseRecord(line)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		if r.String() != line {
			t.Errorf("round trip %q = %q", line, r.String())
		}
	}
}

func TestOpPredicates(t *testing.T) {
	cases := []struct {
		op          Op
		read, write bool
	}{
		{Load, true, false}, {Store, false, true}, {Modify, true, true}, {Misc, false, false},
	}
	for _, c := range cases {
		r := Record{Op: c.op}
		if r.IsRead() != c.read || r.IsWrite() != c.write {
			t.Errorf("%s: read=%v write=%v", c.op, r.IsRead(), r.IsWrite())
		}
	}
	if Op('Q').Valid() {
		t.Error("Q should not be a valid op")
	}
}

func TestParseRecordErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"S",
		"S 7ff0001b0",
		"S 7ff0001b0 8",
		"Q 7ff0001b0 8 main",
		"SS 7ff0001b0 8 main",
		"S zzz 8 main",
		"S 7ff0001b0 -1 main",
		"S 7ff0001b0 x main",
		"S 7ff0001b0 8 main QV x",
		"S 7ff0001b0 8 main GQ x",
		"S 7ff0001b0 8 main LV 0 x",   // missing var after local ids
		"S 7ff0001b0 8 main LV z 1 x", // bad frame
		"S 7ff0001b0 8 main LV 0 z x", // bad thread
		"S 7ff0001b0 8 main GV",       // missing var
		"S 7ff0001b0 8 main GV a b",   // extra field
		"S 7ff0001b0 8 main GV a[",    // bad access path
	} {
		if _, err := ParseRecord(bad); err == nil {
			t.Errorf("ParseRecord(%q) unexpectedly succeeded", bad)
		}
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h, err := ParseHeader("START PID 13063")
	if err != nil {
		t.Fatal(err)
	}
	if h.PID != 13063 {
		t.Errorf("pid = %d", h.PID)
	}
	if h.String() != "START PID 13063" {
		t.Errorf("format = %q", h.String())
	}
	if _, err := ParseHeader("BEGIN 12"); err == nil {
		t.Error("bad header accepted")
	}
}

func TestRecordEqual(t *testing.T) {
	a, _ := ParseRecord("S 000601040 4 main GV glScalar")
	b, _ := ParseRecord("S 000601040 4 main GV glScalar")
	if !a.Equal(&b) {
		t.Error("identical records not equal")
	}
	c, _ := ParseRecord("S 000601044 4 main GV glScalar")
	if a.Equal(&c) {
		t.Error("different addresses compare equal")
	}
	d, _ := ParseRecord("S 000601040 4 main GV other")
	if a.Equal(&d) {
		t.Error("different variables compare equal")
	}
	e, _ := ParseRecord("S 000601040 4 main")
	if a.Equal(&e) {
		t.Error("symbol vs no-symbol compare equal")
	}
}

func TestRecordEnd(t *testing.T) {
	r := Record{Addr: 0x100, Size: 8}
	if r.End() != 0x108 {
		t.Errorf("End = %#x", r.End())
	}
}

// Property: String → ParseRecord is the identity for well-formed records.
func TestRecordRoundTripProperty(t *testing.T) {
	ops := []Op{Load, Store, Modify, Misc}
	f := func(addr uint32, size uint8, opPick uint8, local, agg bool, frame uint8, idx uint8) bool {
		r := Record{
			Op:   ops[int(opPick)%len(ops)],
			Addr: uint64(addr),
			Size: int32(size%16) + 1,
		}
		r.HasSym = true
		r.Aggregate = agg
		v := ctype.AccessExpr{Root: "v"}
		if agg {
			v.Path = ctype.Path{{Index: int64(idx)}, {Field: "m"}}
		}
		if local {
			r.Vis = Local
			r.Site = NewLocalSite("main", v, int32(frame%4), 1)
		} else {
			r.Vis = Global
			r.Site = NewSite("main", v)
		}
		parsed, err := ParseRecord(r.String())
		return err == nil && parsed.Equal(&r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
