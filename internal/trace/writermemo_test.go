package trace

import (
	"bytes"
	"testing"

	"tracedst/internal/ctype"
)

// TestBinaryWriterSiteMemo: the writer's site memo changes no byte.
// Records that share one site per spelling, records that each carry a
// site of their own with the same spellings, and records whose sites
// collide in one memo slot (two sites of one spelling, and a site of
// another spelling) encode to the same bytes.
func TestBinaryWriterSiteMemo(t *testing.T) {
	grid := ctype.AccessExpr{Root: "grid", Path: ctype.Path{{Index: 3}, {Field: "x"}}}
	g := ctype.AccessExpr{Root: "g"}
	local := func() *Site { return NewLocalSite("main", grid, 0, 1) }
	global := func() *Site { return NewSite("foo", g) }
	bare := func() *Site { return NewSite("bar", ctype.AccessExpr{}) }

	// Sites that fall in the slot of a: b spells the same, c does not.
	var memo writerSites
	a := local()
	var b, c *Site
	var kept []*Site // held so that each candidate keeps its own address
	for b == nil || c == nil {
		s1, s2 := local(), global()
		kept = append(kept, s1, s2)
		if b == nil && memo.slot(s1) == memo.slot(a) {
			b = s1
		}
		if c == nil && memo.slot(s2) == memo.slot(a) {
			c = s2
		}
	}

	const n = 1000
	shared := [3]*Site{a, global(), bare()}
	recs := func(site func(i, kind int) *Site) []Record {
		out := make([]Record, n)
		for i := range out {
			kind := i % 3
			r := Record{Op: Load, Addr: 0x601040 + uint64(i%7)*8, Size: 8, Site: site(i, kind)}
			switch kind {
			case 0:
				r.HasSym, r.Vis, r.Aggregate = true, Local, true
			case 1:
				r.HasSym, r.Vis = true, Global
			}
			out[i] = r
		}
		return out
	}
	encode := func(recs []Record) []byte {
		var buf bytes.Buffer
		wr := NewBinaryWriter(&buf)
		wr.SetBlockRecords(64)
		for i := range recs {
			if err := wr.Write(&recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := wr.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	want := encode(recs(func(_, kind int) *Site { return shared[kind] }))
	for _, tc := range []struct {
		name string
		site func(i, kind int) *Site
	}{
		{"distinct", func(_, kind int) *Site { return [3]func() *Site{local, global, bare}[kind]() }},
		{"colliding", func(i, kind int) *Site {
			switch {
			case kind == 1:
				return c
			case kind == 0 && i%2 == 0:
				return a
			case kind == 0:
				return b
			}
			return shared[2]
		}},
	} {
		if got := encode(recs(tc.site)); !bytes.Equal(got, want) {
			t.Errorf("%s sites: %d bytes differ from shared sites' %d", tc.name, len(got), len(want))
		}
	}
	if len(kept) == 0 {
		t.Fatal("no colliding sites searched")
	}
}
