package ctype

import (
	"testing"
	"testing/quick"
)

func listing1Env() (*Struct, *Array) {
	typeA := NewStruct("_typeA", []Field{
		{Name: "d1", Type: Double},
		{Name: "myArray", Type: NewArray(Int, 10)},
	})
	return typeA, NewArray(typeA, 10)
}

func TestParseAccessSimple(t *testing.T) {
	a, err := ParseAccess("glScalar")
	if err != nil {
		t.Fatal(err)
	}
	if a.Root != "glScalar" || len(a.Path) != 0 {
		t.Errorf("got %+v", a)
	}
}

func TestParseAccessNested(t *testing.T) {
	a, err := ParseAccess("glStructArray[0].myArray[3]")
	if err != nil {
		t.Fatal(err)
	}
	want := AccessExpr{Root: "glStructArray", Path: Path{
		{Index: 0}, {Field: "myArray"}, {Index: 3},
	}}
	if a.Root != want.Root || !a.Path.Equal(want.Path) {
		t.Errorf("got %v, want %v", a, want)
	}
	if a.String() != "glStructArray[0].myArray[3]" {
		t.Errorf("round trip = %q", a.String())
	}
}

func TestParseAccessDotFirst(t *testing.T) {
	a, err := ParseAccess("lSoA.mX[5]")
	if err != nil {
		t.Fatal(err)
	}
	if a.Root != "lSoA" || !a.Path.Equal(Path{{Field: "mX"}, {Index: 5}}) {
		t.Errorf("got %v", a)
	}
}

func TestParseAccessErrors(t *testing.T) {
	for _, bad := range []string{
		"", "[0]", "x[", "x[abc]", "x.", "x..y", "x]y",
	} {
		if _, err := ParseAccess(bad); err == nil {
			t.Errorf("ParseAccess(%q) unexpectedly succeeded", bad)
		}
	}
}

func TestResolveNested(t *testing.T) {
	_, arr := listing1Env()
	// glStructArray[1].myArray[2]: 1*48 + 8 + 2*4 = 64
	off, elem, err := Resolve(arr, Path{{Index: 1}, {Field: "myArray"}, {Index: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if off != 64 {
		t.Errorf("offset = %d, want 64", off)
	}
	if elem != Int {
		t.Errorf("elem = %v, want int", elem)
	}
}

func TestResolveErrors(t *testing.T) {
	typeA, arr := listing1Env()
	cases := []struct {
		t    Type
		path Path
	}{
		{arr, Path{{Index: 10}}},                 // out of bounds
		{arr, Path{{Field: "d1"}}},               // field on array
		{typeA, Path{{Index: 0}}},                // subscript on struct
		{typeA, Path{{Field: "nope"}}},           // missing field
		{Int, Path{{Index: 0}}},                  // path past scalar
		{NewPointer(Int), Path{{Field: "x"}}},    // through pointer
		{typeA, Path{{Field: "d1"}, {Index: 0}}}, // subscript on double
	}
	for i, c := range cases {
		if _, _, err := Resolve(c.t, c.path); err == nil {
			t.Errorf("case %d: Resolve(%v, %v) unexpectedly succeeded", i, c.t, c.path)
		}
	}
}

func TestPathForOffset(t *testing.T) {
	_, arr := listing1Env()
	path, elem, err := PathForOffset(nil, arr, 64)
	if err != nil {
		t.Fatal(err)
	}
	want := Path{{Index: 1}, {Field: "myArray"}, {Index: 2}}
	if !path.Equal(want) {
		t.Errorf("path = %v, want %v", path, want)
	}
	if elem != Int {
		t.Errorf("elem = %v", elem)
	}
}

func TestPathForOffsetPadding(t *testing.T) {
	s := NewStruct("p", []Field{
		{Name: "c", Type: Char},
		{Name: "i", Type: Int},
	})
	// Offset 2 is in the padding hole between c and i: path stops at struct.
	path, elem, err := PathForOffset(nil, s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 0 || elem != Type(s) {
		t.Errorf("padding lookup: path=%v elem=%v", path, elem)
	}
}

func TestPathForOffsetOutOfRange(t *testing.T) {
	if _, _, err := PathForOffset(nil, Int, 4); err == nil {
		t.Error("offset 4 in int should fail")
	}
	if _, _, err := PathForOffset(nil, Int, -1); err == nil {
		t.Error("negative offset should fail")
	}
}

// Property: Resolve and PathForOffset are inverses for scalar-leaf offsets.
func TestResolvePathRoundTrip(t *testing.T) {
	typeA, _ := listing1Env()
	arr := NewArray(typeA, 7)
	f := func(rawOff uint16) bool {
		off := int64(rawOff) % arr.Size()
		path, elem, err := PathForOffset(nil, arr, off)
		if err != nil {
			return false
		}
		if _, isAgg := elem.(*Struct); isAgg {
			return true // padding hole; no scalar to round-trip
		}
		got, gotElem, err := Resolve(arr, path)
		if err != nil {
			return false
		}
		// Resolve returns the start of the scalar; off may be interior.
		return gotElem == elem && got <= off && off < got+elem.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPathClone(t *testing.T) {
	p := Path{{Index: 1}, {Field: "x"}}
	q := p.Clone()
	q[0].Index = 9
	if p[0].Index != 1 {
		t.Error("Clone did not copy")
	}
}

func TestPathString(t *testing.T) {
	p := Path{{Index: 2}, {Field: "mY"}}
	if p.String() != "[2].mY" {
		t.Errorf("got %q", p.String())
	}
	if (Path{}).String() != "" {
		t.Error("empty path should render empty")
	}
}
