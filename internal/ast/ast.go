// Package ast defines the abstract syntax tree of the source language: the
// Soufflé-style Datalog dialect described in the paper's §2, with relations,
// facts, Horn rules, stratified negation, constraints, arithmetic and string
// functors, and aggregates.
package ast

import (
	"sti/internal/value"
)

// Pos is a source position (1-based).
type Pos struct {
	Line, Col int
}

// Program is a parsed source file.
type Program struct {
	Decls      []*RelationDecl
	Directives []*Directive
	Clauses    []*Clause
}

// Rep selects the data-structure portfolio entry for a relation.
type Rep uint8

// Relation representation qualifiers. Default means "engine's choice"
// (a B-tree).
const (
	RepDefault Rep = iota
	RepBTree
	RepBrie
	RepEqRel
)

func (r Rep) String() string {
	switch r {
	case RepBTree:
		return "btree"
	case RepBrie:
		return "brie"
	case RepEqRel:
		return "eqrel"
	default:
		return ""
	}
}

// RelationDecl is a .decl item: a relation name, its typed attributes, and
// an optional representation qualifier.
type RelationDecl struct {
	Name  string
	Attrs []Attr
	Rep   Rep
	Pos   Pos
}

// Arity is the number of attributes.
func (d *RelationDecl) Arity() int { return len(d.Attrs) }

// Attr is a named, typed relation attribute.
type Attr struct {
	Name string
	Type value.Type
}

// DirectiveKind distinguishes the I/O directives.
type DirectiveKind uint8

// The I/O directives.
const (
	DirInput DirectiveKind = iota
	DirOutput
	DirPrintSize
)

func (k DirectiveKind) String() string {
	switch k {
	case DirInput:
		return ".input"
	case DirOutput:
		return ".output"
	default:
		return ".printsize"
	}
}

// Directive is a .input/.output/.printsize item.
type Directive struct {
	Kind DirectiveKind
	Rel  string
	Pos  Pos
}

// Clause is a fact (empty body) or rule.
type Clause struct {
	Head *Atom
	Body []Literal
	Pos  Pos
}

// IsFact reports whether the clause has an empty body.
func (c *Clause) IsFact() bool { return len(c.Body) == 0 }

// Literal is a body element: a positive atom, a negated atom, or a
// constraint.
type Literal interface{ isLiteral() }

// Atom is a relation applied to argument expressions.
type Atom struct {
	Name string
	Args []Expr
	Pos  Pos
}

func (*Atom) isLiteral() {}

// Negation is a negated atom.
type Negation struct {
	Atom *Atom
}

func (*Negation) isLiteral() {}

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

func (op CmpOp) String() string {
	return [...]string{"=", "!=", "<", "<=", ">", ">="}[op]
}

// Constraint is a comparison between two expressions.
type Constraint struct {
	Op   CmpOp
	L, R Expr
	Pos  Pos
}

func (*Constraint) isLiteral() {}

// Expr is an argument or constraint operand.
type Expr interface{ isExpr() }

// Var is a named variable.
type Var struct {
	Name string
	Pos  Pos
}

// Wildcard is the anonymous variable "_".
type Wildcard struct {
	Pos Pos
}

// NumLit is a signed number literal.
type NumLit struct {
	Val int32
	Pos Pos
}

// UnsignedLit is an unsigned number literal (suffix "u").
type UnsignedLit struct {
	Val uint32
	Pos Pos
}

// FloatLit is a float literal.
type FloatLit struct {
	Val float32
	Pos Pos
}

// StrLit is a string (symbol) literal.
type StrLit struct {
	Val string
	Pos Pos
}

// BinOp is a binary functor.
type BinOp uint8

// Binary functors.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpPow
	OpBAnd
	OpBOr
	OpBXor
	OpBShl
	OpBShr
	OpLAnd
	OpLOr
)

func (op BinOp) String() string {
	return [...]string{"+", "-", "*", "/", "%", "^", "band", "bor", "bxor", "bshl", "bshr", "land", "lor"}[op]
}

// BinExpr applies a binary functor.
type BinExpr struct {
	Op   BinOp
	L, R Expr
	Pos  Pos
}

// UnOp is a unary functor.
type UnOp uint8

// Unary functors.
const (
	OpNeg UnOp = iota
	OpBNot
	OpLNot
)

func (op UnOp) String() string {
	return [...]string{"-", "bnot", "lnot"}[op]
}

// UnExpr applies a unary functor.
type UnExpr struct {
	Op  UnOp
	E   Expr
	Pos Pos
}

// Call applies a named intrinsic functor; LookupFunctor gives its
// signature.
type Call struct {
	Name string
	Args []Expr
	Pos  Pos
}

// AggKind distinguishes aggregate operators.
type AggKind uint8

// Aggregate operators.
const (
	AggCount AggKind = iota
	AggSum
	AggMin
	AggMax
)

func (k AggKind) String() string {
	return [...]string{"count", "sum", "min", "max"}[k]
}

// Aggregate is an aggregate expression, e.g. "sum y : { edge(x, y) }".
// Target is nil for count. Body literals may reference variables bound in
// the enclosing rule (those become loop-carried) plus local variables.
type Aggregate struct {
	Kind   AggKind
	Target Expr // nil for count
	Body   []Literal
	Pos    Pos
}

func (*Var) isExpr()         {}
func (*Wildcard) isExpr()    {}
func (*NumLit) isExpr()      {}
func (*UnsignedLit) isExpr() {}
func (*FloatLit) isExpr()    {}
func (*StrLit) isExpr()      {}
func (*BinExpr) isExpr()     {}
func (*UnExpr) isExpr()      {}
func (*Call) isExpr()        {}
func (*Aggregate) isExpr()   {}
