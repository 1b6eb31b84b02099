package minic

import (
	"strings"
	"testing"
)

// TestBitwiseOperators exercises the integer bit operations.
func TestBitwiseOperators(t *testing.T) {
	src := `int main(void) {
	int a, b;
	a = 12;       // 0b1100
	b = 10;       // 0b1010
	return ((a & b) << 8) | ((a | b) << 4) | (a ^ b);
}`
	_, _, v := run(t, src, nil)
	want := int64(8<<8 | 14<<4 | 6)
	if v != want {
		t.Errorf("got %d, want %d", v, want)
	}
}

func TestShiftAndNegation(t *testing.T) {
	src := `int main(void) {
	int x;
	x = 1 << 10;      // 1024
	x = x >> 3;       // 128
	return ~x + 1;    // -x = -128 → two's complement identity
}`
	_, _, v := run(t, src, nil)
	if v != -128 {
		t.Errorf("got %d", v)
	}
}

func TestPointerComparisons(t *testing.T) {
	src := `int main(void) {
	int a[4];
	int *p, *q;
	p = a;
	q = a + 2;
	if (p < q && q > p && p != q && p <= q && q >= p) {
		if (p == a) return q - p;  // pointer difference in elements
	}
	return -1;
}`
	_, _, v := run(t, src, nil)
	if v != 2 {
		t.Errorf("pointer arithmetic/comparison: got %d, want 2", v)
	}
}

func TestPointerMinusInt(t *testing.T) {
	src := `int main(void) {
	int a[4];
	int *p;
	a[1] = 42;
	p = a + 3;
	p = p - 2;
	return *p;
}`
	_, _, v := run(t, src, nil)
	if v != 42 {
		t.Errorf("got %d", v)
	}
}

func TestIntPlusPointer(t *testing.T) {
	src := `int main(void) {
	int a[4];
	a[3] = 9;
	return *(3 + a);
}`
	_, _, v := run(t, src, nil)
	if v != 9 {
		t.Errorf("got %d", v)
	}
}

func TestCalloc(t *testing.T) {
	src := `int main(void) {
	int *p;
	p = calloc(8, sizeof(int));
	p[5] = 6;
	int r;
	r = p[5] + p[0];  // calloc memory reads as zero
	free(p);
	return r;
}`
	_, _, v := run(t, src, nil)
	if v != 6 {
		t.Errorf("got %d", v)
	}
}

func TestCastTypesInExpressions(t *testing.T) {
	src := `int main(void) {
	double d;
	d = 3.99;
	long l;
	l = (long) d;          // truncation
	char c;
	c = (char) 300;        // wraps to 44
	unsigned u;
	u = (unsigned) -1;     // 0xffffffff
	return (int) l + c + (int)(u >> 28);
}`
	_, _, v := run(t, src, nil)
	// 3 + 44 + 15 = 62
	if v != 62 {
		t.Errorf("got %d", v)
	}
}

func TestSizeofExprVariants(t *testing.T) {
	src := `
struct P { int x; double y; };
struct P gp;
struct P *gpp;
int main(void) {
	int a[4];
	return sizeof(gp) + sizeof(gp.y) + sizeof(a[0]) + sizeof(*gpp) + sizeof(gpp->y) + sizeof(a);
}`
	_, _, v := run(t, src, nil)
	// 16 + 8 + 4 + 16 + 8 + 16 = 68
	if v != 68 {
		t.Errorf("got %d", v)
	}
}

func TestRvaluePointerSubscript(t *testing.T) {
	// (p+1)[1] subscripts a pointer value: a base that names no place.
	src := `int main(void) {
	int a[4];
	int *p;
	a[2] = 77;
	p = a;
	return (p+1)[1];
}`
	_, _, v := run(t, src, nil)
	if v != 77 {
		t.Errorf("got %d", v)
	}
}

func TestConstEvalInDimensions(t *testing.T) {
	// Exercise shift/mod/unary in constant array dimensions.
	src := `
int a[(1<<4) + (9%4) - (-1)];  // 16 + 1 + 1 = 18... (9%4)=1 → 16+1+1 = 18
int main(void) { return sizeof(a) / sizeof(int); }`
	_, _, v := run(t, src, nil)
	if v != 18 {
		t.Errorf("dim = %d", v)
	}
}

func TestConstEvalErrors(t *testing.T) {
	for _, bad := range []string{
		`int a[4/0]; int main(void){return 0;}`,
		`int a[4%0]; int main(void){return 0;}`,
	} {
		if _, err := Parse(bad, nil); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestTypedefOfPointerAndArray(t *testing.T) {
	src := `
typedef int *IntPtr;
typedef double Vec[4];
Vec gv;
int main(void) {
	IntPtr p;
	int x;
	x = 5;
	p = &x;
	gv[2] = 2.5;
	return *p + (int) gv[2];
}`
	_, _, v := run(t, src, nil)
	if v != 7 {
		t.Errorf("got %d", v)
	}
}

func TestFloatDivisionByZeroFails(t *testing.T) {
	prog := mustParse(t, `int main(void) { double d; d = 1.0 / 0.0; return 0; }`, nil)
	if _, err := NewInterp(prog, nil).Run(); err == nil {
		t.Error("float division by zero accepted")
	}
}

func TestModuloOnFloatsRejected(t *testing.T) {
	prog := mustParse(t, `int main(void) { double d; d = 1.5; d = d % 2; return 0; }`, nil)
	if _, err := NewInterp(prog, nil).Run(); err == nil {
		t.Error("float modulo accepted")
	}
}

func TestUnsignedWideningBehaviour(t *testing.T) {
	src := `int main(void) {
	unsigned char c;
	c = 200;
	int widened;
	widened = c + 100;  // zero-extension: 300, not a negative wrap
	return widened;
}`
	_, _, v := run(t, src, nil)
	if v != 300 {
		t.Errorf("got %d", v)
	}
}

func TestStringLiteralRejectedInExpression(t *testing.T) {
	prog := mustParse(t, `int main(void) { int x; x = "hi" == 0; return x; }`, nil)
	if _, err := NewInterp(prog, nil).Run(); err == nil {
		t.Error("string literal in expression accepted")
	}
}

func TestNestedTernary(t *testing.T) {
	src := `int classify(int x) {
	return x < 0 ? -1 : x == 0 ? 0 : 1;
}
int main(void) { return classify(-5)*100 + classify(0)*10 + classify(7); }`
	_, _, v := run(t, src, nil)
	if v != -1*100+0*10+1 {
		t.Errorf("got %d, want -99", v)
	}
}

func TestErrorMessagesCarryLineNumbers(t *testing.T) {
	_, err := Parse("int main(void) {\n\tint x;\n\tx = @;\n\treturn 0;\n}", nil)
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("err = %v, want line 3 mention", err)
	}
}
