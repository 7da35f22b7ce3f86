// Package sema performs semantic analysis: declaration and arity checking,
// groundedness checking, type inference and checking, and stratification of
// negation and aggregation (paper §2).
package sema

import (
	"fmt"
	"sort"

	"sti/internal/ast"
	"sti/internal/value"
)

// Error is a semantic error with position.
type Error struct {
	Msg string
	Pos ast.Pos
}

func (e *Error) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Pos.Line, e.Pos.Col, e.Msg)
}

func errf(pos ast.Pos, format string, args ...any) error {
	return &Error{Msg: fmt.Sprintf(format, args...), Pos: pos}
}

// Rel is an analyzed relation.
type Rel struct {
	ID        int
	Decl      *ast.RelationDecl
	Input     bool
	Output    bool
	PrintSize bool
	Clauses   []*ast.Clause // clauses defining this relation
	Recursive bool          // belongs to a recursive SCC
	Stratum   int
}

// Name returns the relation's name.
func (r *Rel) Name() string { return r.Decl.Name }

// Arity returns the relation's arity.
func (r *Rel) Arity() int { return r.Decl.Arity() }

// HasProperRule reports whether the relation has at least one non-fact
// clause, i.e. rules derive some of its tuples.
func (r *Rel) HasProperRule() bool {
	for _, c := range r.Clauses {
		if !c.IsFact() {
			return true
		}
	}
	return false
}

// Stratum is one evaluation layer: a single SCC of the predicate dependency
// graph. Strata are ordered so that all dependencies of a stratum lie in
// earlier strata.
type Stratum struct {
	Index     int
	Rels      []*Rel
	Recursive bool
}

// ClauseInfo carries per-clause analysis results.
type ClauseInfo struct {
	Clause   *ast.Clause
	VarTypes map[string]value.Type
}

// Program is the analysis result.
type Program struct {
	Source  *ast.Program
	Rels    map[string]*Rel
	RelList []*Rel // ordered by ID (declaration order)
	Strata  []*Stratum
	Clauses map[*ast.Clause]*ClauseInfo
}

// Rel returns the analyzed relation named name, or nil.
func (p *Program) Rel(name string) *Rel { return p.Rels[name] }

// Analyze checks prog and computes strata. All detected errors are returned
// together.
func Analyze(prog *ast.Program) (*Program, []error) {
	a := &analysis{
		prog: prog,
		out: &Program{
			Source:  prog,
			Rels:    make(map[string]*Rel),
			Clauses: make(map[*ast.Clause]*ClauseInfo),
		},
	}
	a.collectDecls()
	a.collectDirectives()
	a.collectClauses()
	if len(a.errs) == 0 {
		a.checkClauses()
	}
	if len(a.errs) == 0 {
		a.stratify()
	}
	if len(a.errs) > 0 {
		return nil, a.errs
	}
	return a.out, nil
}

type analysis struct {
	prog *ast.Program
	out  *Program
	errs []error
}

func (a *analysis) errorf(pos ast.Pos, format string, args ...any) {
	a.errs = append(a.errs, errf(pos, format, args...))
}

func (a *analysis) collectDecls() {
	for _, d := range a.prog.Decls {
		if prev, ok := a.out.Rels[d.Name]; ok {
			a.errorf(d.Pos, "relation %s redeclared (previous declaration at %d:%d)",
				d.Name, prev.Decl.Pos.Line, prev.Decl.Pos.Col)
			continue
		}
		if d.Rep == ast.RepEqRel {
			if d.Arity() != 2 {
				a.errorf(d.Pos, "eqrel relation %s must be binary, has arity %d", d.Name, d.Arity())
			} else if d.Attrs[0].Type != d.Attrs[1].Type {
				a.errorf(d.Pos, "eqrel relation %s must have equally-typed columns", d.Name)
			}
		}
		seen := map[string]bool{}
		for _, at := range d.Attrs {
			if seen[at.Name] {
				a.errorf(d.Pos, "relation %s has duplicate attribute %s", d.Name, at.Name)
			}
			seen[at.Name] = true
		}
		r := &Rel{ID: len(a.out.RelList), Decl: d}
		a.out.Rels[d.Name] = r
		a.out.RelList = append(a.out.RelList, r)
	}
}

func (a *analysis) collectDirectives() {
	for _, d := range a.prog.Directives {
		r, ok := a.out.Rels[d.Rel]
		if !ok {
			a.errorf(d.Pos, "%s references undeclared relation %s", d.Kind, d.Rel)
			continue
		}
		switch d.Kind {
		case ast.DirInput:
			r.Input = true
		case ast.DirOutput:
			r.Output = true
		case ast.DirPrintSize:
			r.PrintSize = true
		}
	}
}

func (a *analysis) collectClauses() {
	for _, c := range a.prog.Clauses {
		r, ok := a.out.Rels[c.Head.Name]
		if !ok {
			a.errorf(c.Head.Pos, "clause head references undeclared relation %s", c.Head.Name)
			continue
		}
		r.Clauses = append(r.Clauses, c)
	}
}

// atomRel resolves an atom's relation, checking arity.
func (a *analysis) atomRel(at *ast.Atom) *Rel {
	r, ok := a.out.Rels[at.Name]
	if !ok {
		a.errorf(at.Pos, "undeclared relation %s", at.Name)
		return nil
	}
	if len(at.Args) != r.Arity() {
		a.errorf(at.Pos, "relation %s has arity %d, used with %d arguments",
			at.Name, r.Arity(), len(at.Args))
		return nil
	}
	return r
}

func (a *analysis) checkClauses() {
	for _, c := range a.prog.Clauses {
		if a.out.Rels[c.Head.Name] == nil {
			continue
		}
		before := len(a.errs)
		ck := &clauseCheck{a: a, clause: c, types: map[string]value.Type{}}
		ck.run()
		if len(a.errs) == before {
			a.out.Clauses[c] = &ClauseInfo{Clause: c, VarTypes: ck.types}
		}
	}
}

// --- per-clause checking ---

type clauseCheck struct {
	a      *analysis
	clause *ast.Clause
	types  map[string]value.Type
}

func (ck *clauseCheck) run() {
	c := ck.clause
	if c.IsFact() {
		ck.checkFact()
		return
	}
	// Pass 1: variable types from atom positions (positive and negative),
	// all nesting levels.
	ck.bindAtomTypes(c.Body)
	// Pass 2: propagate types through binding equalities, aggregate
	// bodies' included, until fixpoint.
	eqs := equalities(c.Body)
	ast.WalkLiterals(c.Body, func(e ast.Expr) {
		if agg, ok := e.(*ast.Aggregate); ok {
			eqs = append(eqs, equalities(agg.Body)...)
		}
	})
	for changed := true; changed; {
		changed = false
		for _, cons := range eqs {
			if ck.propagateEq(cons) {
				changed = true
			}
		}
	}
	// Groundedness.
	ck.checkGroundedness()
	// Full type check of every expression.
	ck.typeCheckBody(c.Body)
	head := ck.a.out.Rels[c.Head.Name]
	for i, e := range c.Head.Args {
		want := head.Decl.Attrs[i].Type
		ck.checkExprType(e, want, c.Head.Pos)
	}
}

// equalities returns the equality constraints among lits.
func equalities(lits []ast.Literal) []*ast.Constraint {
	var eqs []*ast.Constraint
	for _, l := range lits {
		if cons, ok := l.(*ast.Constraint); ok && cons.Op == ast.CmpEQ {
			eqs = append(eqs, cons)
		}
	}
	return eqs
}

func (ck *clauseCheck) checkFact() {
	c := ck.clause
	head := ck.a.out.Rels[c.Head.Name]
	for i, e := range c.Head.Args {
		if !isConstExpr(e) {
			ck.a.errorf(c.Pos, "fact %s has non-constant argument %s", c.Head.Name, ast.ExprString(e))
			continue
		}
		ck.checkExprType(e, head.Decl.Attrs[i].Type, c.Pos)
	}
}

func isConstExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.NumLit, *ast.UnsignedLit, *ast.FloatLit, *ast.StrLit:
		return true
	case *ast.BinExpr:
		return isConstExpr(e.L) && isConstExpr(e.R)
	case *ast.UnExpr:
		return isConstExpr(e.E)
	case *ast.Call:
		for _, a := range e.Args {
			if !isConstExpr(a) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// bindAtomTypes records the type of every variable that appears directly as
// an atom argument, at any nesting depth (including aggregate bodies).
func (ck *clauseCheck) bindAtomTypes(lits []ast.Literal) {
	var doAtom func(at *ast.Atom)
	doAtom = func(at *ast.Atom) {
		r := ck.a.atomRel(at)
		if r == nil {
			return
		}
		for i, e := range at.Args {
			if v, ok := e.(*ast.Var); ok {
				ck.noteVarType(v, r.Decl.Attrs[i].Type)
			}
			// Aggregates nested in atom args carry their own bodies.
			ast.WalkExpr(e, func(sub ast.Expr) {
				if agg, ok := sub.(*ast.Aggregate); ok {
					ck.bindAtomTypes(agg.Body)
				}
			})
		}
	}
	for _, l := range lits {
		switch l := l.(type) {
		case *ast.Atom:
			doAtom(l)
		case *ast.Negation:
			doAtom(l.Atom)
		case *ast.Constraint:
			ast.WalkExpr(l.L, func(sub ast.Expr) {
				if agg, ok := sub.(*ast.Aggregate); ok {
					ck.bindAtomTypes(agg.Body)
				}
			})
			ast.WalkExpr(l.R, func(sub ast.Expr) {
				if agg, ok := sub.(*ast.Aggregate); ok {
					ck.bindAtomTypes(agg.Body)
				}
			})
		}
	}
}

func (ck *clauseCheck) noteVarType(v *ast.Var, t value.Type) {
	if prev, ok := ck.types[v.Name]; ok {
		if prev != t {
			ck.a.errorf(v.Pos, "variable %s used with conflicting types %s and %s", v.Name, prev, t)
		}
		return
	}
	ck.types[v.Name] = t
}

// propagateEq assigns a type to a variable on one side of x = expr when the
// other side's type is known. Reports whether anything changed.
func (ck *clauseCheck) propagateEq(c *ast.Constraint) bool {
	try := func(v ast.Expr, other ast.Expr) bool {
		vv, ok := v.(*ast.Var)
		if !ok {
			return false
		}
		if _, known := ck.types[vv.Name]; known {
			return false
		}
		t, ok := ck.inferType(other)
		if !ok {
			return false
		}
		ck.types[vv.Name] = t
		return true
	}
	return try(c.L, c.R) || try(c.R, c.L)
}

// inferType computes an expression's type under the clause's variable
// types, if fully determined.
func (ck *clauseCheck) inferType(e ast.Expr) (value.Type, bool) { return ExprType(e, ck.types) }

// ExprType computes an expression's type under the variable types vars
// (a ClauseInfo's VarTypes), if fully determined: a binary or unary
// operator has its operands' type, a functor its signature's result (min
// and max their arguments'), count is a number and any other aggregate has
// its target's type. It is the one type inference of the front end; the
// translator types its RAM from it.
func ExprType(e ast.Expr, vars map[string]value.Type) (value.Type, bool) {
	switch e := e.(type) {
	case *ast.NumLit:
		return value.Number, true
	case *ast.UnsignedLit:
		return value.Unsigned, true
	case *ast.FloatLit:
		return value.Float, true
	case *ast.StrLit:
		return value.Symbol, true
	case *ast.Var:
		t, ok := vars[e.Name]
		return t, ok
	case *ast.BinExpr:
		if t, ok := ExprType(e.L, vars); ok {
			return t, true
		}
		return ExprType(e.R, vars)
	case *ast.UnExpr:
		return ExprType(e.E, vars)
	case *ast.Call:
		f, ok := ast.LookupFunctor(e.Name)
		switch {
		case !ok:
			return 0, false
		case !f.Poly:
			return f.Result, true
		}
		for _, a := range e.Args {
			if t, ok := ExprType(a, vars); ok {
				return t, true
			}
		}
		return 0, false
	case *ast.Aggregate:
		if e.Kind == ast.AggCount {
			return value.Number, true
		}
		if e.Target != nil {
			return ExprType(e.Target, vars)
		}
		return 0, false
	default:
		return 0, false
	}
}

// --- groundedness ---

// GroundVars computes the set of variables bound by the given conjunction,
// starting from the variables in outer (for aggregate bodies). It is
// exported for the lint rules, which reuse the checker's groundedness
// semantics on sources that may not otherwise pass analysis.
func GroundVars(lits []ast.Literal, outer map[string]bool) map[string]bool {
	bound := map[string]bool{}
	for v := range outer {
		bound[v] = true
	}
	// Positive atoms bind their direct variable arguments.
	for _, l := range lits {
		if at, ok := l.(*ast.Atom); ok {
			for _, e := range at.Args {
				if v, ok := e.(*ast.Var); ok {
					bound[v.Name] = true
				}
			}
		}
	}
	// Equalities v = ground-expr bind v; iterate to fixpoint.
	for changed := true; changed; {
		changed = false
		for _, l := range lits {
			cons, ok := l.(*ast.Constraint)
			if !ok || cons.Op != ast.CmpEQ {
				continue
			}
			try := func(v, other ast.Expr) {
				vv, ok := v.(*ast.Var)
				if !ok || bound[vv.Name] {
					return
				}
				if ExprGround(other, bound) {
					bound[vv.Name] = true
					changed = true
				}
			}
			try(cons.L, cons.R)
			try(cons.R, cons.L)
		}
	}
	return bound
}

// ExprGround reports whether every variable in e is bound. Aggregates are
// ground when their outer-referenced variables are bound (local variables
// are bound by the aggregate body itself).
func ExprGround(e ast.Expr, bound map[string]bool) bool {
	switch e := e.(type) {
	case *ast.Var:
		return bound[e.Name]
	case *ast.Wildcard, *ast.NumLit, *ast.UnsignedLit, *ast.FloatLit, *ast.StrLit:
		return true
	case *ast.BinExpr:
		return ExprGround(e.L, bound) && ExprGround(e.R, bound)
	case *ast.UnExpr:
		return ExprGround(e.E, bound)
	case *ast.Call:
		for _, a := range e.Args {
			if !ExprGround(a, bound) {
				return false
			}
		}
		return true
	case *ast.Aggregate:
		inner := GroundVars(e.Body, bound)
		for _, l := range e.Body {
			if !LiteralGround(l, inner) {
				return false
			}
		}
		if e.Target != nil && !ExprGround(e.Target, inner) {
			return false
		}
		return true
	default:
		return false
	}
}

// LiteralGround checks that the non-binding parts of a literal are ground.
func LiteralGround(l ast.Literal, bound map[string]bool) bool {
	switch l := l.(type) {
	case *ast.Atom:
		for _, e := range l.Args {
			if _, isVar := e.(*ast.Var); isVar {
				continue // binding position
			}
			if !ExprGround(e, bound) {
				return false
			}
		}
		return true
	case *ast.Negation:
		for _, e := range l.Atom.Args {
			if w, ok := e.(*ast.Wildcard); ok {
				_ = w
				continue
			}
			if !ExprGround(e, bound) {
				return false
			}
		}
		return true
	case *ast.Constraint:
		// Binding equalities were handled in GroundVars; remaining operands
		// must be ground.
		return ExprGround(l.L, bound) && ExprGround(l.R, bound)
	default:
		return false
	}
}

func (ck *clauseCheck) checkGroundedness() {
	c := ck.clause
	bound := GroundVars(c.Body, nil)
	for _, e := range c.Head.Args {
		ck.reportUnground(e, bound, c.Head.Pos, "head")
	}
	for _, l := range c.Body {
		switch l := l.(type) {
		case *ast.Negation:
			for _, e := range l.Atom.Args {
				if _, isW := e.(*ast.Wildcard); isW {
					continue
				}
				ck.reportUnground(e, bound, l.Atom.Pos, "negation")
			}
		case *ast.Constraint:
			if l.Op == ast.CmpEQ {
				// At least one side must be ground for an equality;
				// groundVars already used it to bind the other side.
				if !ExprGround(l.L, bound) || !ExprGround(l.R, bound) {
					ck.a.errorf(l.Pos, "ungrounded equality %s", ast.LiteralString(l))
				}
				continue
			}
			ck.reportUnground(l.L, bound, l.Pos, "constraint")
			ck.reportUnground(l.R, bound, l.Pos, "constraint")
		case *ast.Atom:
			for _, e := range l.Args {
				if _, isVar := e.(*ast.Var); isVar {
					continue
				}
				if _, isW := e.(*ast.Wildcard); isW {
					continue
				}
				ck.reportUnground(e, bound, l.Pos, "argument")
			}
		}
	}
}

func (ck *clauseCheck) reportUnground(e ast.Expr, bound map[string]bool, pos ast.Pos, where string) {
	if ExprGround(e, bound) {
		return
	}
	// Name one offending variable for the message.
	var offender string
	ast.WalkExpr(e, func(sub ast.Expr) {
		if v, ok := sub.(*ast.Var); ok && !bound[v.Name] && offender == "" {
			offender = v.Name
		}
	})
	if offender == "" {
		offender = ast.ExprString(e)
	}
	ck.a.errorf(pos, "variable %s is not grounded by a positive body literal (%s)", offender, where)
}

// --- expression type checking ---

func (ck *clauseCheck) typeCheckBody(lits []ast.Literal) {
	for _, l := range lits {
		switch l := l.(type) {
		case *ast.Atom:
			ck.typeCheckAtom(l)
		case *ast.Negation:
			ck.typeCheckAtom(l.Atom)
		case *ast.Constraint:
			lt, lok := ck.inferType(l.L)
			rt, rok := ck.inferType(l.R)
			switch {
			case lok && rok && lt != rt:
				ck.a.errorf(l.Pos, "comparison of %s and %s", lt, rt)
			case lok:
				ck.checkExprType(l.L, lt, l.Pos)
				ck.checkExprType(l.R, lt, l.Pos)
			case rok:
				ck.checkExprType(l.L, rt, l.Pos)
				ck.checkExprType(l.R, rt, l.Pos)
			default:
				ck.a.errorf(l.Pos, "cannot infer types in constraint %s", ast.LiteralString(l))
			}
		}
	}
}

func (ck *clauseCheck) typeCheckAtom(at *ast.Atom) {
	r := ck.a.out.Rels[at.Name]
	if r == nil || len(at.Args) != r.Arity() {
		return // already reported
	}
	for i, e := range at.Args {
		if _, isW := e.(*ast.Wildcard); isW {
			continue
		}
		ck.checkExprType(e, r.Decl.Attrs[i].Type, at.Pos)
	}
}

// checkExprType verifies that e has type want, recursing into operators.
func (ck *clauseCheck) checkExprType(e ast.Expr, want value.Type, pos ast.Pos) {
	switch e := e.(type) {
	case *ast.Wildcard:
		// allowed contexts only; callers filter
	case *ast.Var:
		if t, ok := ck.types[e.Name]; ok && t != want {
			ck.a.errorf(e.Pos, "variable %s has type %s, expected %s", e.Name, t, want)
		}
	case *ast.NumLit:
		if want != value.Number {
			ck.a.errorf(e.Pos, "number literal %d used as %s", e.Val, want)
		}
	case *ast.UnsignedLit:
		if want != value.Unsigned {
			ck.a.errorf(e.Pos, "unsigned literal %du used as %s", e.Val, want)
		}
	case *ast.FloatLit:
		if want != value.Float {
			ck.a.errorf(e.Pos, "float literal used as %s", want)
		}
	case *ast.StrLit:
		if want != value.Symbol {
			ck.a.errorf(e.Pos, "string literal %q used as %s", e.Val, want)
		}
	case *ast.BinExpr:
		switch e.Op {
		case ast.OpBAnd, ast.OpBOr, ast.OpBXor, ast.OpBShl, ast.OpBShr, ast.OpLAnd, ast.OpLOr:
			if want == value.Float || want == value.Symbol {
				ck.a.errorf(e.Pos, "bitwise/logical operator %s cannot produce %s", e.Op, want)
				return
			}
		case ast.OpMod:
			if want == value.Float || want == value.Symbol {
				ck.a.errorf(e.Pos, "operator %% cannot produce %s", want)
				return
			}
		default:
			if want == value.Symbol {
				ck.a.errorf(e.Pos, "arithmetic operator %s cannot produce symbol", e.Op)
				return
			}
		}
		ck.checkExprType(e.L, want, pos)
		ck.checkExprType(e.R, want, pos)
	case *ast.UnExpr:
		switch e.Op {
		case ast.OpNeg:
			if want == value.Symbol || want == value.Unsigned {
				ck.a.errorf(e.Pos, "unary minus cannot produce %s", want)
				return
			}
		case ast.OpBNot, ast.OpLNot:
			if want == value.Float || want == value.Symbol {
				ck.a.errorf(e.Pos, "operator %s cannot produce %s", e.Op, want)
				return
			}
		}
		ck.checkExprType(e.E, want, pos)
	case *ast.Call:
		ck.typeCheckCall(e, want)
	case *ast.Aggregate:
		ck.typeCheckAggregate(e, want)
	}
}

// typeCheckCall checks a functor call against its signature.
func (ck *clauseCheck) typeCheckCall(e *ast.Call, want value.Type) {
	f, ok := ast.LookupFunctor(e.Name)
	if !ok {
		ck.a.errorf(e.Pos, "unknown functor %s", e.Name)
		return
	}
	if !f.Poly && want != f.Result {
		ck.a.errorf(e.Pos, "%s produces %s, expected %s", e.Name, f.Result, want)
	}
	switch {
	case f.Variadic && len(e.Args) < f.Arity:
		ck.a.errorf(e.Pos, "%s expects at least %d arguments", e.Name, f.Arity)
		return
	case !f.Variadic && len(e.Args) != f.Arity:
		ck.a.errorf(e.Pos, "functor %s expects %d arguments, got %d", e.Name, f.Arity, len(e.Args))
		return
	case f.Poly && want == value.Symbol:
		ck.a.errorf(e.Pos, "%s cannot produce symbol", e.Name)
		return
	}
	for i, a := range e.Args {
		ck.checkExprType(a, f.ArgType(i, want), e.Pos)
	}
}

func (ck *clauseCheck) typeCheckAggregate(e *ast.Aggregate, want value.Type) {
	ck.typeCheckBody(e.Body)
	switch e.Kind {
	case ast.AggCount:
		if want != value.Number {
			ck.a.errorf(e.Pos, "count produces number, expected %s", want)
		}
	default:
		if want == value.Symbol {
			ck.a.errorf(e.Pos, "%s aggregate cannot produce symbol", e.Kind)
			return
		}
		if e.Target != nil {
			ck.checkExprType(e.Target, want, e.Pos)
		}
	}
}

// --- stratification ---

// stratify runs Tarjan's SCC algorithm over the predicate dependency graph,
// rejects negative (negation/aggregate) edges inside an SCC, and orders the
// SCCs into strata.
func (a *analysis) stratify() {
	n := len(a.out.RelList)
	type edge struct {
		to       int
		negative bool
	}
	adj := make([][]edge, n)
	var collect func(head *Rel, lits []ast.Literal, negCtx bool)
	collect = func(head *Rel, lits []ast.Literal, negCtx bool) {
		for _, l := range lits {
			switch l := l.(type) {
			case *ast.Atom:
				if r := a.out.Rels[l.Name]; r != nil {
					adj[head.ID] = append(adj[head.ID], edge{to: r.ID, negative: negCtx})
				}
				for _, e := range l.Args {
					ast.WalkExpr(e, func(sub ast.Expr) {
						if agg, ok := sub.(*ast.Aggregate); ok {
							collect(head, agg.Body, true)
						}
					})
				}
			case *ast.Negation:
				if r := a.out.Rels[l.Atom.Name]; r != nil {
					adj[head.ID] = append(adj[head.ID], edge{to: r.ID, negative: true})
				}
			case *ast.Constraint:
				for _, side := range []ast.Expr{l.L, l.R} {
					ast.WalkExpr(side, func(sub ast.Expr) {
						if agg, ok := sub.(*ast.Aggregate); ok {
							collect(head, agg.Body, true)
						}
					})
				}
			}
		}
	}
	for _, r := range a.out.RelList {
		for _, c := range r.Clauses {
			collect(r, c.Body, false)
		}
	}

	succ := make([][]int, n)
	for v, edges := range adj {
		for _, e := range edges {
			succ[v] = append(succ[v], e.to)
		}
	}
	comp, ncomp := SCC(succ)

	// Reject negative edges within an SCC; mark recursive relations.
	for v, edges := range adj {
		for _, e := range edges {
			if comp[v] == comp[e.to] {
				a.out.RelList[v].Recursive = true
				a.out.RelList[e.to].Recursive = true
				if e.negative {
					a.errorf(a.out.RelList[v].Decl.Pos,
						"program is not stratifiable: %s depends negatively on %s within a recursive cycle",
						a.out.RelList[v].Name(), a.out.RelList[e.to].Name())
				}
			}
		}
	}
	if len(a.errs) > 0 {
		return
	}

	// Order SCCs topologically: dependencies first. Tarjan assigns component
	// numbers in reverse topological order of the condensation (a component
	// is finished only after everything it reaches), so ascending component
	// id already places dependencies before dependents.
	strata := make([]*Stratum, ncomp)
	for i := range strata {
		strata[i] = &Stratum{Index: i}
	}
	for _, r := range a.out.RelList {
		s := strata[comp[r.ID]]
		r.Stratum = s.Index
		s.Rels = append(s.Rels, r)
		if r.Recursive {
			s.Recursive = true
		}
	}
	for _, s := range strata {
		sort.Slice(s.Rels, func(i, j int) bool { return s.Rels[i].ID < s.Rels[j].ID })
	}
	a.out.Strata = strata
}

// SCC runs Tarjan's algorithm over a graph given as successor lists and
// returns each node's strongly connected component and the component count.
// It is iterative to survive deep programs. Components are numbered in
// reverse topological order of the condensation: a component is finished
// only after everything it reaches.
func SCC(adj [][]int) (comp []int, ncomp int) {
	n := len(adj)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	comp = make([]int, n)
	for i := range index {
		index[i] = -1
		comp[i] = -1
	}
	var stack []int
	counter := 0
	type tframe struct {
		v, ei int
	}
	for start := 0; start < n; start++ {
		if index[start] != -1 {
			continue
		}
		work := []tframe{{start, 0}}
		index[start] = counter
		low[start] = counter
		counter++
		stack = append(stack, start)
		onStack[start] = true
		for len(work) > 0 {
			f := &work[len(work)-1]
			v := f.v
			if f.ei < len(adj[v]) {
				w := adj[v][f.ei]
				f.ei++
				if index[w] == -1 {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					work = append(work, tframe{w, 0})
				} else if onStack[w] {
					if index[w] < low[v] {
						low[v] = index[w]
					}
				}
				continue
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				p := work[len(work)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}
	return comp, ncomp
}
