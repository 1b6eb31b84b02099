package minic

import (
	"tracedst/internal/ctype"
)

// Expr is any expression node.
type Expr interface{ exprNode() }

// Ident references a variable (or enumerates a macro-expanded constant).
type Ident struct {
	Name string
	Line int
}

// IntLit is an integer constant.
type IntLit struct{ V int64 }

// FloatLit is a floating-point constant.
type FloatLit struct{ V float64 }

// StrLit is a string literal (only useful as a call argument placeholder).
type StrLit struct{ S string }

// Unary is a prefix or postfix unary operation: -x !x ~x *p &x ++x x++ --x x--.
type Unary struct {
	Op      string
	X       Expr
	Postfix bool // true for x++ / x--
}

// Binary is a binary operation.
type Binary struct {
	Op   string
	X, Y Expr
}

// Assign is simple or compound assignment (=, +=, -=, …).
type Assign struct {
	Op  string
	LHS Expr
	RHS Expr
}

// Index is array subscripting x[i].
type Index struct {
	X Expr
	I Expr
}

// Member is member access x.Name or p->Name.
type Member struct {
	X     Expr
	Name  string
	Arrow bool
}

// Call is a function call by name.
type Call struct {
	Name string
	Args []Expr
	Line int
}

// Cast is (T)x.
type Cast struct {
	Type ctype.Type
	X    Expr
}

// SizeofType is sizeof(T).
type SizeofType struct{ Type ctype.Type }

// SizeofExpr is sizeof(expr); the operand is not evaluated.
type SizeofExpr struct{ X Expr }

// Cond is the ternary operator c ? t : f.
type Cond struct {
	C, T, F Expr
}

// Comma is the C comma operator: operands evaluate left to right and the
// value is the last one's.
type Comma struct {
	List []Expr
}

func (*Ident) exprNode()      {}
func (*IntLit) exprNode()     {}
func (*FloatLit) exprNode()   {}
func (*StrLit) exprNode()     {}
func (*Unary) exprNode()      {}
func (*Binary) exprNode()     {}
func (*Assign) exprNode()     {}
func (*Index) exprNode()      {}
func (*Member) exprNode()     {}
func (*Call) exprNode()       {}
func (*Cast) exprNode()       {}
func (*SizeofType) exprNode() {}
func (*SizeofExpr) exprNode() {}
func (*Cond) exprNode()       {}
func (*Comma) exprNode()      {}

// Stmt is any statement node.
type Stmt interface{ stmtNode() }

// VarDecl is one declarator of a declaration statement.
type VarDecl struct {
	Name string
	Type ctype.Type
	Init Expr // nil when uninitialised (mutually exclusive with InitList)
	// InitList holds a brace-enclosed initialiser list for arrays; missing
	// trailing elements are zero, as in C.
	InitList []Expr
	Line     int
}

// DeclStmt declares one or more variables.
type DeclStmt struct{ Decls []VarDecl }

// ExprStmt evaluates an expression for its effects.
type ExprStmt struct{ X Expr }

// Block is a { … } statement list.
type Block struct{ Stmts []Stmt }

// For is a C for loop; Init may be a DeclStmt (C99) or ExprStmt, and any of
// the three clauses may be nil.
type For struct {
	Init Stmt
	Cond Expr
	Post Expr
	Body Stmt
}

// While is a while loop.
type While struct {
	Cond Expr
	Body Stmt
}

// DoWhile is a do { } while loop.
type DoWhile struct {
	Body Stmt
	Cond Expr
}

// If is a conditional statement.
type If struct {
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// Return exits the current function; X may be nil.
type Return struct{ X Expr }

// Break exits the innermost loop.
type Break struct{}

// Continue advances the innermost loop.
type Continue struct{}

// SwitchCase is one "case v1: case v2: stmts" arm of a Switch (Default
// true for the default arm). Execution falls through to the next arm
// unless the body breaks, as in C.
type SwitchCase struct {
	Vals    []int64 // matched constants (empty for default)
	Default bool
	Body    []Stmt
}

// Switch is a C switch statement over integer constants.
type Switch struct {
	Cond  Expr
	Cases []SwitchCase
}

// Gleipnir is a GLEIPNIR_START/STOP_INSTRUMENTATION marker statement.
type Gleipnir struct{ On bool }

func (*DeclStmt) stmtNode() {}
func (*ExprStmt) stmtNode() {}
func (*Block) stmtNode()    {}
func (*For) stmtNode()      {}
func (*While) stmtNode()    {}
func (*DoWhile) stmtNode()  {}
func (*If) stmtNode()       {}
func (*Return) stmtNode()   {}
func (*Switch) stmtNode()   {}
func (*Break) stmtNode()    {}
func (*Continue) stmtNode() {}
func (*Gleipnir) stmtNode() {}

// Param is a function parameter. Array parameters decay to pointers at
// parse time, as in C.
type Param struct {
	Name string
	Type ctype.Type
}

// FuncDecl is a function definition.
type FuncDecl struct {
	Name   string
	Params []Param
	Ret    ctype.Type // nil for void
	Body   *Block
	Line   int
}

// Program is a parsed translation unit, compiled (see compile.go). It is
// not changed after Parse, so several Interps may run it at once.
type Program struct {
	// Env holds struct tags and typedefs defined by the program.
	Env *ctype.Env
	// Globals in declaration order.
	Globals []VarDecl
	// Funcs by name.
	Funcs map[string]*FuncDecl

	code *compiled
}
