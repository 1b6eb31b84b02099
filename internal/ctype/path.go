package ctype

import (
	"fmt"
	"strconv"
	"strings"
)

// PathElem is one step of an access path: either a struct field selection
// (.Name) or an array index ([Index]).
type PathElem struct {
	// Field is the selected field name; empty for an index element.
	Field string
	// Index is the array subscript; valid only when Field is empty.
	Index int64
}

// IsIndex reports whether the element is an array subscript.
func (e PathElem) IsIndex() bool { return e.Field == "" }

// Path is a sequence of member selections and subscripts applied to a root
// variable, e.g. glStructArray[0].myArray[1] is the root "glStructArray"
// plus the path [Index 0, Field myArray, Index 1].
type Path []PathElem

// String renders the path in C syntax (without the root variable name).
func (p Path) String() string { return string(p.AppendText(nil)) }

// AppendText appends the C-syntax rendering of the path to dst and returns
// the extended slice. It never allocates beyond growing dst, so codec hot
// paths can render paths into reused scratch buffers.
func (p Path) AppendText(dst []byte) []byte {
	for _, e := range p {
		if e.IsIndex() {
			dst = append(dst, '[')
			dst = strconv.AppendInt(dst, e.Index, 10)
			dst = append(dst, ']')
		} else {
			dst = append(dst, '.')
			dst = append(dst, e.Field...)
		}
	}
	return dst
}

// Equal reports whether two paths are identical.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the path.
func (p Path) Clone() Path {
	q := make(Path, len(p))
	copy(q, p)
	return q
}

// AccessExpr is a parsed variable reference from a trace line's metadata
// column: a root variable name plus an access path, e.g.
// "lSoA.mX[3]" or "glStructArray[1].myArray[1]".
type AccessExpr struct {
	Root string
	Path Path
}

// String renders the access in C syntax.
func (a AccessExpr) String() string { return a.Root + a.Path.String() }

// AppendText appends the C-syntax rendering of the access to dst and
// returns the extended slice.
func (a AccessExpr) AppendText(dst []byte) []byte {
	return a.Path.AppendText(append(dst, a.Root...))
}

// ParseAccess parses a C-style access expression such as
// "glStructArray[0].myArray[0]". The root identifier may contain any
// non-separator characters (Gleipnir emits names like _zzq_args), and
// subscripts must be decimal integers.
func ParseAccess(s string) (AccessExpr, error) { return ParseAccessInto(nil, s) }

// ParseAccessInto is ParseAccess building the path in buf's storage
// (buf[:0], grown as needed), so a decoder can parse into a reused scratch
// path and copy out only what it keeps. The root and field names are
// substrings of s.
func ParseAccessInto(buf Path, s string) (AccessExpr, error) {
	a := AccessExpr{Path: buf[:0]}
	if s == "" {
		return a, fmt.Errorf("ctype: empty access expression")
	}
	i := 0
	for i < len(s) && s[i] != '.' && s[i] != '[' && s[i] != ']' {
		i++
	}
	a.Root = s[:i]
	if a.Root == "" {
		return a, fmt.Errorf("ctype: access %q has no root variable", s)
	}
	for i < len(s) {
		switch s[i] {
		case '.':
			i++
			j := i
			for j < len(s) && s[j] != '.' && s[j] != '[' {
				j++
			}
			if j == i {
				return a, fmt.Errorf("ctype: empty field name in %q", s)
			}
			a.Path = append(a.Path, PathElem{Field: s[i:j]})
			i = j
		case '[':
			j := strings.IndexByte(s[i:], ']')
			if j < 0 {
				return a, fmt.Errorf("ctype: unterminated subscript in %q", s)
			}
			idx, err := strconv.ParseInt(s[i+1:i+j], 10, 64)
			if err != nil {
				return a, fmt.Errorf("ctype: bad subscript in %q: %v", s, err)
			}
			a.Path = append(a.Path, PathElem{Index: idx})
			i += j + 1
		default:
			return a, fmt.Errorf("ctype: unexpected %q in access %q", s[i], s)
		}
	}
	return a, nil
}

// Resolve walks path starting at type t and returns the byte offset of the
// referenced sub-object from the start of t, together with its type.
// Array subscripts are bounds-checked against the declared length.
func Resolve(t Type, path Path) (off int64, elem Type, err error) {
	elem = t
	for i, e := range path {
		switch tt := elem.(type) {
		case *Array:
			if !e.IsIndex() {
				return 0, nil, fmt.Errorf("ctype: field .%s applied to array %s", e.Field, tt)
			}
			if e.Index < 0 || e.Index >= tt.Len {
				return 0, nil, fmt.Errorf("ctype: index %d out of range for %s", e.Index, tt)
			}
			off += e.Index * tt.Elem.Size()
			elem = tt.Elem
		case *Struct:
			if e.IsIndex() {
				return 0, nil, fmt.Errorf("ctype: subscript [%d] applied to %s", e.Index, tt)
			}
			f, ok := tt.FieldByName(e.Field)
			if !ok {
				return 0, nil, fmt.Errorf("ctype: %s has no field %q", tt, e.Field)
			}
			off += f.Offset
			elem = f.Type
		case *Pointer:
			return 0, nil, fmt.Errorf("ctype: cannot traverse pointer at path step %d without memory", i)
		default:
			return 0, nil, fmt.Errorf("ctype: path continues past scalar %s at step %d", elem, i)
		}
	}
	return off, elem, nil
}

// PathForOffset computes the access path of the sub-object of t that covers
// byte offset off, descending into arrays and structs until it reaches a
// scalar (or a sub-object boundary it cannot descend past, such as a padding
// hole, in which case it returns the path so far). This is the reverse-map
// Valgrind's debug parser performs when it annotates a raw address with
// "glStructArray[0].myArray[0]". A non-empty path is allocated once, at
// exact size.
func PathForOffset(t Type, off int64) (Path, Type, error) {
	if off < 0 || off >= t.Size() && !(off == 0 && t.Size() == 0) {
		return nil, nil, fmt.Errorf("ctype: offset %d out of range for %s (size %d)", off, t, t.Size())
	}
	var buf [8]PathElem
	path := Path(buf[:0])
	elem := t
walk:
	for {
		switch tt := elem.(type) {
		case *Array:
			if tt.Elem.Size() == 0 {
				break walk
			}
			i := off / tt.Elem.Size()
			path = append(path, PathElem{Index: i})
			off -= i * tt.Elem.Size()
			elem = tt.Elem
		case *Struct:
			f, ok := tt.FieldAt(off)
			if !ok {
				// Padding hole: stop at the struct itself.
				break walk
			}
			path = append(path, PathElem{Field: f.Name})
			off -= f.Offset
			elem = f.Type
		default:
			break walk
		}
	}
	if len(path) == 0 {
		return nil, elem, nil
	}
	return path.Clone(), elem, nil
}
