package trace_test

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"tracedst/internal/faultinject"
	"tracedst/internal/trace"
)

// fieldEdge is one end of the range a Record holds for one field: edge is
// the last value inside it, past the first one outside.
type fieldEdge struct {
	field      string // "size", "frame" or "thread"
	edge, past int64
}

var fieldEdges = []fieldEdge{
	{"size", math.MaxInt32, math.MaxInt32 + 1},
	{"frame", math.MaxInt32, math.MaxInt32 + 1},
	{"frame", math.MinInt32, math.MinInt32 - 1},
	{"thread", math.MaxInt32, math.MaxInt32 + 1},
	{"thread", math.MinInt32, math.MinInt32 - 1},
}

func (e fieldEdge) String() string { return fmt.Sprintf("%s=%d", e.field, e.edge) }

// line renders a local load whose field e holds v, the other fields
// ordinary.
func (e fieldEdge) line(v int64) string {
	size, frame, thread := int64(8), int64(0), int64(1)
	switch e.field {
	case "size":
		size = v
	case "frame":
		frame = v
	case "thread":
		thread = v
	}
	return fmt.Sprintf("L 7ff0001b0 %d main LV %d %d i", size, frame, thread)
}

// text is a three-record trace whose second record (line 3) holds v.
func (e fieldEdge) text(v int64) string {
	return "START PID 7\nS 7ff0001a0 4 main LV 0 1 j\n" + e.line(v) + "\nL 7ff0001a0 4 main LV 0 1 j\n"
}

// encodeGLB writes recs as an indexed .glb with one record per block.
func encodeGLB(tb testing.TB, h trace.Header, recs []trace.Record) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := trace.NewBinaryWriter(&buf)
	w.SetBlockRecords(1)
	w.EnableIndex()
	if err := w.WriteHeader(h); err != nil {
		tb.Fatal(err)
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// glbOf encodes a text trace as encodeGLB does.
func glbOf(tb testing.TB, src string) []byte {
	tb.Helper()
	h, recs, err := trace.ParseAll(src)
	if err != nil {
		tb.Fatal(err)
	}
	return encodeGLB(tb, h, recs)
}

// TestTextFieldBounds: every text entry point accepts the ends of the
// size, frame and thread ranges and renders them back byte for byte; one
// step past fails with the field named, at its line in strict mode, and
// counts as one bad line in lenient mode.
func TestTextFieldBounds(t *testing.T) {
	parsers := []struct {
		name  string
		parse func(string) (trace.Record, error)
	}{
		{"ParseRecord", trace.ParseRecord},
		{"ParseRecordBytes", func(s string) (trace.Record, error) { return trace.ParseRecordBytes([]byte(s)) }},
	}
	for _, e := range fieldEdges {
		t.Run(e.String(), func(t *testing.T) {
			want := "bad " + e.field
			for _, p := range parsers {
				line := e.line(e.edge)
				if r, err := p.parse(line); err != nil || r.String() != line {
					t.Errorf("%s(%q) = %q, %v; want it back unchanged", p.name, line, r.String(), err)
				}
				if _, err := p.parse(e.line(e.past)); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s(%d) err = %v, want %q", p.name, e.past, err, want)
				}
			}

			src := e.text(e.edge)
			h, recs, err := trace.ParseAll(src)
			if err != nil || trace.Format(h, recs) != src {
				t.Errorf("Reader round trip: err %v, got\n%s", err, trace.Format(h, recs))
			}
			bad := e.text(e.past)
			if _, _, err := trace.ParseAll(bad); err == nil || !strings.Contains(err.Error(), "line 3: ") ||
				!strings.Contains(err.Error(), want) {
				t.Errorf("strict Reader err = %v, want line 3 and %q", err, want)
			}
			rd := trace.NewReaderOptions(strings.NewReader(bad), trace.DecodeOptions{Mode: trace.Lenient, MaxBadLines: 1})
			if recs, err := rd.ReadAll(); err != nil || len(recs) != 2 || rd.BadLines() != 1 {
				t.Errorf("lenient Reader: %d records, %d bad, err %v; want 2, 1, nil", len(recs), rd.BadLines(), err)
			}
		})
	}
}

// TestTextFieldsDoNotWrap: a value whose low 32 bits lie in range is
// still out of range, not truncated into it.
func TestTextFieldsDoNotWrap(t *testing.T) {
	for _, line := range []string{
		"L 7ff0001b0 4294967304 main",          // size 2^32 + 8
		"L 7ff0001b0 8 main LV 4294967296 1 i", // frame 2^32
		"L 7ff0001b0 8 main LV 0 4294967297 i", // thread 2^32 + 1
	} {
		if r, err := trace.ParseRecord(line); err == nil {
			t.Errorf("ParseRecord(%q) accepted it as %q", line, r.String())
		}
		if r, err := trace.ParseRecordBytes([]byte(line)); err == nil {
			t.Errorf("ParseRecordBytes(%q) accepted it as %q", line, r.String())
		}
	}
}

// glbDecoders are the three .glb decode paths, each reading a whole trace.
var glbDecoders = []struct {
	name string
	read func(data []byte, opts trace.DecodeOptions) ([]trace.Record, error)
}{
	{"BinaryReader", func(data []byte, opts trace.DecodeOptions) ([]trace.Record, error) {
		return trace.NewBinaryReaderOptions(bytes.NewReader(data), opts).ReadAll()
	}},
	{"DecodeBytes", func(data []byte, opts trace.DecodeOptions) ([]trace.Record, error) {
		_, _, recs, err := trace.DecodeBytes(data, opts, 2)
		return recs, err
	}},
	{"IndexedTrace.Source", func(data []byte, opts trace.DecodeOptions) ([]trace.Record, error) {
		tr, err := trace.NewIndexedBytes(data)
		if err != nil {
			return nil, err
		}
		return trace.ReadSource(tr.Source(0, tr.NumBlocks(), opts))
	}},
}

// TestBinaryFieldBounds: every .glb decode path accepts the ends of the
// size, frame and thread ranges, and re-encoding what it read gives the
// same bytes. A block holding a value one step past (forged, with a valid
// checksum) fails with the field named, at its block in strict mode, and
// counts as one bad block in lenient mode.
func TestBinaryFieldBounds(t *testing.T) {
	for _, e := range fieldEdges {
		t.Run(e.String(), func(t *testing.T) {
			h, _, err := trace.ParseAll(e.text(e.edge))
			if err != nil {
				t.Fatal(err)
			}
			good := glbOf(t, e.text(e.edge))
			bad := faultinject.GLBForgeVarint(good, e.edge, e.past)
			if bytes.Equal(bad, good) {
				t.Fatal("no block holds the edge value")
			}
			want := "bad " + e.field
			for _, d := range glbDecoders {
				recs, err := d.read(good, trace.DecodeOptions{})
				if err != nil || !bytes.Equal(encodeGLB(t, h, recs), good) {
					t.Errorf("%s: err %v, or re-encoding changed the bytes", d.name, err)
				}
				if _, err := d.read(bad, trace.DecodeOptions{}); err == nil || !strings.Contains(err.Error(), "line 2: ") ||
					!strings.Contains(err.Error(), want) {
					t.Errorf("%s strict: err = %v, want block 2 and %q", d.name, err, want)
				}
				var nbad int
				lenient := trace.DecodeOptions{Mode: trace.Lenient, MaxBadLines: 1,
					OnError: func(int, string, error) { nbad++ }}
				if recs, err := d.read(bad, lenient); err != nil || len(recs) != 2 || nbad != 1 {
					t.Errorf("%s lenient: %d records, %d bad, err %v; want 2, 1, nil", d.name, len(recs), nbad, err)
				}
			}
		})
	}
}

// TestValidateRejectsOutOfRangeFields: the validator behind glcheck
// reports a value past a field's range as an error in either container.
func TestValidateRejectsOutOfRangeFields(t *testing.T) {
	for _, e := range fieldEdges {
		for _, data := range [][]byte{
			[]byte(e.text(e.past)),
			faultinject.GLBForgeVarint(glbOf(t, e.text(e.edge)), e.edge, e.past),
		} {
			rep, err := trace.Validate(bytes.NewReader(data), trace.ValidateOptions{SkipRegionChecks: true})
			if err != nil {
				t.Fatal(err)
			}
			if rep.OK() || !strings.Contains(rep.Summary(), "bad "+e.field) {
				t.Errorf("%s=%d (%s): validator report\n%s", e.field, e.past, trace.DetectFormat(data), rep.Summary())
			}
		}
	}
}
