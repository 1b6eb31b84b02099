package minic

import (
	"fmt"
	"strings"

	"tracedst/internal/ctype"
)

// Parse parses a miniC translation unit. defines are object-like macro
// definitions applied before parsing (equivalent to -DNAME=VALUE).
func Parse(src string, defines map[string]string) (*Program, error) {
	toks, err := Lex(src, defines)
	if err != nil {
		return nil, err
	}
	p := &parser{
		toks: toks,
		prog: &Program{Env: ctype.NewEnv(), Funcs: map[string]*FuncDecl{}},
	}
	if err := p.parseUnit(); err != nil {
		return nil, err
	}
	p.prog.code = compile(p.prog)
	return p.prog, nil
}

type parser struct {
	toks []Tok
	pos  int
	prog *Program
}

func (p *parser) peek() Tok { return p.toks[p.pos] }
func (p *parser) peek2() Tok {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) next() Tok {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *parser) at(text string) bool {
	t := p.peek()
	return (t.Kind == TokPunct || t.Kind == TokIdent) && t.Text == text
}

func (p *parser) accept(text string) bool {
	if p.at(text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	t := p.next()
	if t.Text != text {
		return p.errf(t, "expected %q, got %q", text, t)
	}
	return nil
}

func (p *parser) errf(t Tok, format string, args ...interface{}) error {
	return fmt.Errorf("minic: line %d: %s", t.Line, fmt.Sprintf(format, args...))
}

// ---------------------------------------------------------------------------
// top level

func (p *parser) parseUnit() error {
	for p.peek().Kind != TokEOF {
		if p.accept("typedef") {
			if err := p.parseTypedef(); err != nil {
				return err
			}
			continue
		}
		if err := p.parseTopDecl(); err != nil {
			return err
		}
	}
	if _, ok := p.prog.Funcs["main"]; !ok {
		return fmt.Errorf("minic: program has no main function")
	}
	return nil
}

// parseTypedef handles "typedef <type> Name;" including
// "typedef struct { ... } Name;".
func (p *parser) parseTypedef() error {
	base, err := p.parseTypeSpec()
	if err != nil {
		return err
	}
	for p.accept("*") {
		base = ctype.NewPointer(base)
	}
	nameTok := p.next()
	if nameTok.Kind != TokIdent {
		return p.errf(nameTok, "expected typedef name, got %q", nameTok)
	}
	var dims []int64
	for p.at("[") {
		n, err := p.parseArrayDim()
		if err != nil {
			return err
		}
		dims = append(dims, n)
	}
	for i := len(dims) - 1; i >= 0; i-- {
		base = ctype.NewArray(base, dims[i])
	}
	if err := p.expect(";"); err != nil {
		return err
	}
	// When the typedef names an anonymous struct, give the struct the
	// typedef name so traces and rules can refer to it.
	if st, ok := base.(*ctype.Struct); ok && st.Name == "" {
		named := ctype.NewStruct(nameTok.Text, st.Fields)
		base = named
	}
	return p.prog.Env.DefineTypedef(nameTok.Text, base)
}

// parseTopDecl handles a global variable declaration, a bare struct
// definition, or a function definition.
func (p *parser) parseTopDecl() error {
	p.accept("const")
	p.accept("static")
	base, err := p.parseTypeSpec()
	if err != nil {
		return err
	}
	if p.accept(";") {
		return nil // bare struct definition
	}
	// Look ahead: declarator then '(' means a function definition.
	save := p.pos
	stars := 0
	for p.accept("*") {
		stars++
	}
	nameTok := p.next()
	if nameTok.Kind != TokIdent {
		return p.errf(nameTok, "expected declarator, got %q", nameTok)
	}
	if p.at("(") {
		ret := base
		for i := 0; i < stars; i++ {
			ret = ctype.NewPointer(ret)
		}
		return p.parseFunc(nameTok.Text, ret, nameTok.Line)
	}
	p.pos = save
	decls, err := p.parseDeclarators(base)
	if err != nil {
		return err
	}
	p.prog.Globals = append(p.prog.Globals, decls...)
	return nil
}

// parseTypeSpec parses "void", a primitive, "struct tag", "struct {…}",
// "struct tag {…}" or a typedef name. It returns nil for void.
func (p *parser) parseTypeSpec() (ctype.Type, error) {
	t := p.peek()
	if t.Kind != TokIdent {
		return nil, p.errf(t, "expected type, got %q", t)
	}
	if t.Text == "void" {
		p.next()
		return nil, nil
	}
	if t.Text == "struct" {
		p.next()
		return p.parseStructSpec()
	}
	// Multi-word primitive.
	words := []string{p.next().Text}
	for p.peek().Kind == TokIdent {
		cand := strings.Join(append(append([]string{}, words...), p.peek().Text), " ")
		if _, ok := ctype.PrimitiveByName(cand); ok {
			words = append(words, p.next().Text)
			continue
		}
		break
	}
	name := strings.Join(words, " ")
	if prim, ok := ctype.PrimitiveByName(name); ok {
		return prim, nil
	}
	if len(words) == 1 {
		if td, ok := p.prog.Env.Typedef(words[0]); ok {
			return td, nil
		}
	}
	return nil, p.errf(t, "unknown type %q", name)
}

func (p *parser) parseStructSpec() (ctype.Type, error) {
	var tag string
	if p.peek().Kind == TokIdent {
		tag = p.next().Text
	}
	if !p.at("{") {
		if tag == "" {
			return nil, p.errf(p.peek(), "anonymous struct without body")
		}
		st, ok := p.prog.Env.Struct(tag)
		if !ok {
			return nil, p.errf(p.peek(), "undefined struct %q", tag)
		}
		return st, nil
	}
	// Pre-register the tag so the body can reference "struct tag *" members
	// (self-referential lists, trees, …).
	var st *ctype.Struct
	if tag != "" {
		if prior, ok := p.prog.Env.Struct(tag); ok {
			if !prior.Incomplete() {
				return nil, p.errf(p.peek(), "struct %s redefined", tag)
			}
			st = prior
		} else {
			st = ctype.NewIncompleteStruct(tag)
			if err := p.prog.Env.DefineStruct(st); err != nil {
				return nil, fmt.Errorf("minic: %v", err)
			}
		}
	}
	p.next() // '{'
	var fields []ctype.Field
	for !p.at("}") {
		if p.peek().Kind == TokEOF {
			return nil, p.errf(p.peek(), "unterminated struct body")
		}
		base, err := p.parseTypeSpec()
		if err != nil {
			return nil, err
		}
		if base == nil {
			return nil, p.errf(p.peek(), "void field in struct")
		}
		decls, err := p.parseDeclarators(base)
		if err != nil {
			return nil, err
		}
		for _, d := range decls {
			if d.Init != nil {
				return nil, p.errf(p.peek(), "initialiser on struct field %s", d.Name)
			}
			fields = append(fields, ctype.Field{Name: d.Name, Type: d.Type})
		}
	}
	p.next() // '}'
	if st == nil {
		return ctype.NewStruct(tag, fields), nil
	}
	if err := st.Complete(fields); err != nil {
		return nil, fmt.Errorf("minic: %v", err)
	}
	return st, nil
}

// parseDeclarators parses "a, *b, c[4] = expr, …;" for the given base type.
func (p *parser) parseDeclarators(base ctype.Type) ([]VarDecl, error) {
	var decls []VarDecl
	for {
		ty := base
		for p.accept("*") {
			ty = ctype.NewPointer(ty)
		}
		nameTok := p.next()
		if nameTok.Kind != TokIdent {
			return nil, p.errf(nameTok, "expected declarator name, got %q", nameTok)
		}
		var dims []int64
		for p.at("[") {
			n, err := p.parseArrayDim()
			if err != nil {
				return nil, err
			}
			dims = append(dims, n)
		}
		for i := len(dims) - 1; i >= 0; i-- {
			ty = ctype.NewArray(ty, dims[i])
		}
		var init Expr
		var initList []Expr
		if p.accept("=") {
			if p.at("{") {
				p.next()
				for !p.at("}") {
					e, err := p.parseAssignExpr()
					if err != nil {
						return nil, err
					}
					initList = append(initList, e)
					if !p.accept(",") {
						break
					}
				}
				if err := p.expect("}"); err != nil {
					return nil, err
				}
				if _, isArr := ty.(*ctype.Array); !isArr {
					return nil, p.errf(nameTok, "initialiser list on non-array %s", nameTok.Text)
				}
				if int64(len(initList)) > ty.(*ctype.Array).Len {
					return nil, p.errf(nameTok, "too many initialisers for %s", nameTok.Text)
				}
			} else {
				e, err := p.parseAssignExpr()
				if err != nil {
					return nil, err
				}
				init = e
			}
		}
		decls = append(decls, VarDecl{Name: nameTok.Text, Type: ty, Init: init, InitList: initList, Line: nameTok.Line})
		if p.accept(",") {
			continue
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return decls, nil
	}
}

// parseArrayDim parses "[n]" where n must be an integer constant expression
// (already macro-expanded), or "[]" which yields length 0 (decayed later).
func (p *parser) parseArrayDim() (int64, error) {
	if err := p.expect("["); err != nil {
		return 0, err
	}
	if p.accept("]") {
		return 0, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return 0, err
	}
	n, err := constEval(e)
	if err != nil {
		return 0, p.errf(p.peek(), "array dimension must be constant: %v", err)
	}
	if err := p.expect("]"); err != nil {
		return 0, err
	}
	return n, nil
}

// constEval folds an integer constant expression (for array dimensions).
func constEval(e Expr) (int64, error) {
	switch v := e.(type) {
	case *IntLit:
		return v.V, nil
	case *SizeofType:
		return v.Type.Size(), nil
	case *Unary:
		x, err := constEval(v.X)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case "-":
			return -x, nil
		case "~":
			return ^x, nil
		case "!":
			if x == 0 {
				return 1, nil
			}
			return 0, nil
		}
		return 0, fmt.Errorf("non-constant unary %s", v.Op)
	case *Binary:
		x, err := constEval(v.X)
		if err != nil {
			return 0, err
		}
		y, err := constEval(v.Y)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case "+":
			return x + y, nil
		case "-":
			return x - y, nil
		case "*":
			return x * y, nil
		case "/":
			if y == 0 {
				return 0, fmt.Errorf("division by zero")
			}
			return x / y, nil
		case "%":
			if y == 0 {
				return 0, fmt.Errorf("modulo by zero")
			}
			return x % y, nil
		case "<<":
			return x << uint(y), nil
		case ">>":
			return x >> uint(y), nil
		}
		return 0, fmt.Errorf("non-constant binary %s", v.Op)
	}
	return 0, fmt.Errorf("non-constant expression %T", e)
}

// parseFunc parses a function definition after its name.
func (p *parser) parseFunc(name string, ret ctype.Type, line int) error {
	if err := p.expect("("); err != nil {
		return err
	}
	var params []Param
	if !p.at(")") {
		for {
			if p.accept("void") {
				break
			}
			base, err := p.parseTypeSpec()
			if err != nil {
				return err
			}
			if base == nil {
				return p.errf(p.peek(), "void parameter with name")
			}
			ty := base
			for p.accept("*") {
				ty = ctype.NewPointer(ty)
			}
			nameTok := p.next()
			if nameTok.Kind != TokIdent {
				return p.errf(nameTok, "expected parameter name, got %q", nameTok)
			}
			// Array parameters decay to pointers.
			for p.at("[") {
				if _, err := p.parseArrayDim(); err != nil {
					return err
				}
				ty = ctype.NewPointer(ty)
			}
			params = append(params, Param{Name: nameTok.Text, Type: ty})
			if !p.accept(",") {
				break
			}
		}
	}
	if err := p.expect(")"); err != nil {
		return err
	}
	body, err := p.parseBlock()
	if err != nil {
		return err
	}
	if _, dup := p.prog.Funcs[name]; dup {
		return fmt.Errorf("minic: function %s redefined", name)
	}
	p.prog.Funcs[name] = &FuncDecl{Name: name, Params: params, Ret: ret, Body: body, Line: line}
	return nil
}

// ---------------------------------------------------------------------------
// statements

func (p *parser) parseBlock() (*Block, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	b := &Block{}
	for !p.at("}") {
		if p.peek().Kind == TokEOF {
			return nil, p.errf(p.peek(), "unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.next()
	return b, nil
}

// isTypeName reports whether the current token names a type — used in cast
// and sizeof contexts where a bare type may appear.
func (p *parser) isTypeName() bool {
	t := p.peek()
	if t.Kind != TokIdent {
		return false
	}
	switch t.Text {
	case "struct", "const", "static", "void":
		return true
	}
	if _, ok := ctype.PrimitiveByName(t.Text); ok {
		return true
	}
	_, ok := p.prog.Env.Typedef(t.Text)
	return ok
}

// startsType reports whether the current token begins a declaration
// statement. Unlike isTypeName, a typedef name only counts when followed
// by a declarator ("T x" or "T *p"), so expressions may use identifiers
// that merely resemble type names.
func (p *parser) startsType() bool {
	t := p.peek()
	if !p.isTypeName() {
		return false
	}
	if _, ok := p.prog.Env.Typedef(t.Text); ok {
		n := p.peek2()
		return n.Kind == TokIdent || n.Text == "*"
	}
	return true
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.peek()
	switch {
	case t.Text == "{":
		return p.parseBlock()
	case t.Text == ";":
		p.next()
		return &Block{}, nil
	case t.Text == "typedef":
		p.next()
		if err := p.parseTypedef(); err != nil {
			return nil, err
		}
		return &Block{}, nil
	case t.Text == "GLEIPNIR_START_INSTRUMENTATION":
		p.next()
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &Gleipnir{On: true}, nil
	case t.Text == "GLEIPNIR_STOP_INSTRUMENTATION":
		p.next()
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &Gleipnir{On: false}, nil
	case t.Text == "for":
		return p.parseFor()
	case t.Text == "while":
		p.next()
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &While{Cond: cond, Body: body}, nil
	case t.Text == "do":
		p.next()
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if err := p.expect("while"); err != nil {
			return nil, err
		}
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &DoWhile{Body: body, Cond: cond}, nil
	case t.Text == "if":
		p.next()
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		var els Stmt
		if p.accept("else") {
			els, err = p.parseStmt()
			if err != nil {
				return nil, err
			}
		}
		return &If{Cond: cond, Then: then, Else: els}, nil
	case t.Text == "switch":
		return p.parseSwitch()
	case t.Text == "return":
		p.next()
		if p.accept(";") {
			return &Return{}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &Return{X: e}, nil
	case t.Text == "break":
		p.next()
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &Break{}, nil
	case t.Text == "continue":
		p.next()
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &Continue{}, nil
	case p.startsType():
		return p.parseDeclStmt()
	default:
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &ExprStmt{X: e}, nil
	}
}

func (p *parser) parseDeclStmt() (Stmt, error) {
	p.accept("const")
	p.accept("static")
	base, err := p.parseTypeSpec()
	if err != nil {
		return nil, err
	}
	if base == nil {
		return nil, p.errf(p.peek(), "void variable declaration")
	}
	if p.accept(";") {
		return &Block{}, nil // bare struct definition inside a function
	}
	decls, err := p.parseDeclarators(base)
	if err != nil {
		return nil, err
	}
	return &DeclStmt{Decls: decls}, nil
}

// parseSwitch parses "switch (expr) { case N: … default: … }". Case labels
// must be integer constant expressions.
func (p *parser) parseSwitch() (Stmt, error) {
	p.next() // switch
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	sw := &Switch{Cond: cond}
	var cur *SwitchCase
	sawDefault := false
	for !p.at("}") {
		t := p.peek()
		switch {
		case t.Kind == TokEOF:
			return nil, p.errf(t, "unterminated switch body")
		case t.Text == "case":
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			v, err := constEval(e)
			if err != nil {
				return nil, p.errf(t, "case label must be constant: %v", err)
			}
			if err := p.expect(":"); err != nil {
				return nil, err
			}
			if cur == nil || len(cur.Body) > 0 || cur.Default {
				sw.Cases = append(sw.Cases, SwitchCase{})
				cur = &sw.Cases[len(sw.Cases)-1]
			}
			cur.Vals = append(cur.Vals, v)
		case t.Text == "default":
			if sawDefault {
				return nil, p.errf(t, "duplicate default label")
			}
			sawDefault = true
			p.next()
			if err := p.expect(":"); err != nil {
				return nil, err
			}
			sw.Cases = append(sw.Cases, SwitchCase{Default: true})
			cur = &sw.Cases[len(sw.Cases)-1]
		default:
			if cur == nil {
				return nil, p.errf(t, "statement before first case label")
			}
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			cur.Body = append(cur.Body, s)
		}
	}
	p.next() // }
	return sw, nil
}

func (p *parser) parseFor() (Stmt, error) {
	p.next() // for
	if err := p.expect("("); err != nil {
		return nil, err
	}
	f := &For{}
	if !p.at(";") {
		if p.startsType() {
			s, err := p.parseDeclStmt()
			if err != nil {
				return nil, err
			}
			f.Init = s
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(";"); err != nil {
				return nil, err
			}
			f.Init = &ExprStmt{X: e}
		}
	} else {
		p.next()
	}
	if !p.at(";") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Cond = e
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	if !p.at(")") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Post = e
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	f.Body = body
	return f, nil
}

// ---------------------------------------------------------------------------
// expressions (precedence climbing)

// parseExpr parses a full expression including the comma operator.
func (p *parser) parseExpr() (Expr, error) {
	e, err := p.parseAssignExpr()
	if err != nil {
		return nil, err
	}
	if !p.at(",") {
		return e, nil
	}
	c := &Comma{List: []Expr{e}}
	for p.accept(",") {
		n, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		c.List = append(c.List, n)
	}
	return c, nil
}

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"&=": true, "|=": true, "^=": true, "<<=": true, ">>=": true,
}

func (p *parser) parseAssignExpr() (Expr, error) {
	lhs, err := p.parseCondExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind == TokPunct && assignOps[p.peek().Text] {
		op := p.next().Text
		rhs, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		return &Assign{Op: op, LHS: lhs, RHS: rhs}, nil
	}
	return lhs, nil
}

func (p *parser) parseCondExpr() (Expr, error) {
	c, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if p.accept("?") {
		t, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(":"); err != nil {
			return nil, err
		}
		f, err := p.parseCondExpr()
		if err != nil {
			return nil, err
		}
		return &Cond{C: c, T: t, F: f}, nil
	}
	return c, nil
}

// binary operator precedence (C levels, higher binds tighter).
var binPrec = map[string]int{
	"||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
	"==": 6, "!=": 6,
	"<": 7, ">": 7, "<=": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		prec, ok := binPrec[t.Text]
		if t.Kind != TokPunct || !ok || prec < minPrec {
			return lhs, nil
		}
		p.next()
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{Op: t.Text, X: lhs, Y: rhs}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.peek()
	switch t.Text {
	case "-", "!", "~", "*", "&":
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: t.Text, X: x}, nil
	case "++", "--":
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: t.Text, X: x}, nil
	case "sizeof":
		p.next()
		if err := p.expect("("); err != nil {
			return nil, err
		}
		if p.isTypeName() {
			ty, err := p.parseCastType()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return &SizeofType{Type: ty}, nil
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return &SizeofExpr{X: x}, nil
	case "(":
		// Either a cast or a parenthesised expression.
		save := p.pos
		p.next()
		if p.isTypeName() {
			ty, err := p.parseCastType()
			if err == nil && p.accept(")") {
				x, err := p.parseUnary()
				if err != nil {
					return nil, err
				}
				return &Cast{Type: ty, X: x}, nil
			}
			p.pos = save
		} else {
			p.pos = save
		}
	}
	return p.parsePostfix()
}

// parseCastType parses the type inside a cast or sizeof: base, stars, dims.
func (p *parser) parseCastType() (ctype.Type, error) {
	base, err := p.parseTypeSpec()
	if err != nil {
		return nil, err
	}
	if base == nil {
		base = ctype.Char // void* → treat as char* for arithmetic
	}
	ty := base
	for p.accept("*") {
		ty = ctype.NewPointer(ty)
	}
	for p.at("[") {
		n, err := p.parseArrayDim()
		if err != nil {
			return nil, err
		}
		ty = ctype.NewArray(ty, n)
	}
	return ty, nil
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		switch t.Text {
		case "[":
			p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			x = &Index{X: x, I: idx}
		case ".":
			p.next()
			nt := p.next()
			if nt.Kind != TokIdent {
				return nil, p.errf(nt, "expected member name, got %q", nt)
			}
			x = &Member{X: x, Name: nt.Text}
		case "->":
			p.next()
			nt := p.next()
			if nt.Kind != TokIdent {
				return nil, p.errf(nt, "expected member name, got %q", nt)
			}
			x = &Member{X: x, Name: nt.Text, Arrow: true}
		case "++", "--":
			p.next()
			x = &Unary{Op: t.Text, X: x, Postfix: true}
		default:
			return x, nil
		}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.next()
	switch t.Kind {
	case TokInt, TokChar:
		return &IntLit{V: t.Int}, nil
	case TokFloat:
		return &FloatLit{V: t.Fl}, nil
	case TokString:
		return &StrLit{S: t.Text}, nil
	case TokIdent:
		if p.at("(") {
			p.next()
			call := &Call{Name: t.Text, Line: t.Line}
			if !p.at(")") {
				for {
					a, err := p.parseAssignExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if !p.accept(",") {
						break
					}
				}
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return call, nil
		}
		return &Ident{Name: t.Text, Line: t.Line}, nil
	case TokPunct:
		if t.Text == "(" {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf(t, "unexpected token %q in expression", t)
}
