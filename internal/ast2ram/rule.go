package ast2ram

import (
	"fmt"
	"maps"

	"sti/internal/ast"
	"sti/internal/ram"
	"sti/internal/sema"
	"sti/internal/value"
)

// ruleTranslator builds the operation tree of one rule version.
type ruleTranslator struct {
	t         *translator
	info      *sema.ClauseInfo
	env       map[string]ram.Expr // variable bindings
	uses      map[string]int      // variable occurrence counts across the clause
	tid       int                 // next tuple slot
	forceScan bool                // disable the existence-check collapse (version.exclude)
}

// translateRule emits one semi-naive version of a rule as a Query.
func (t *translator) translateRule(c *ast.Clause, v version) (ram.Statement, error) {
	info := t.sem.Clauses[c]
	tr := &ruleTranslator{t: t, info: info, env: map[string]ram.Expr{}, uses: map[string]int{}, forceScan: v.exclude != nil}

	// Count variable uses to recognize single-use variables (treated like
	// wildcards: they never need a binding).
	c.Walk(func(e ast.Expr) {
		if vv, ok := e.(*ast.Var); ok {
			tr.uses[vv.Name]++
		}
	})

	// Split the body into positive atoms (loop levels) and deferred
	// literals (negations and constraints, attached as early as possible).
	type bodyAtom struct {
		atom *ast.Atom
		pos  int
		rel  *ram.Relation
	}
	var atoms []bodyAtom
	type deferred struct {
		lit ast.Literal
	}
	var defers []deferred
	for i, l := range c.Body {
		switch l := l.(type) {
		case *ast.Atom:
			ba := bodyAtom{atom: l, pos: i, rel: t.rels[l.Name]}
			if r := v.subst[i]; r != nil {
				ba.rel = r
			}
			atoms = append(atoms, ba)
		default:
			defers = append(defers, deferred{lit: l})
		}
	}
	// The driver rule: delta atoms keep the written order (the paper's
	// semi-naive shape); any other substituted tracker (recent, del, ddel,
	// dred) is rotated to the outermost level. It holds the batch-sized
	// change set, so driving the join from it keeps the variant's cost
	// proportional to the change rather than to the full relations it joins
	// against. Body literal order is free here — update and delete variants
	// exist only for stratified positive programs, and deferred literals
	// attach by groundedness, not position.
	driver := -1
	for i, ba := range atoms {
		if r := v.subst[ba.pos]; r != nil && r.Kind != ram.AuxDelta {
			driver = i
			break
		}
	}
	if driver > 0 {
		rotated := make([]bodyAtom, 0, len(atoms))
		rotated = append(rotated, atoms[driver])
		rotated = append(rotated, atoms[:driver]...)
		rotated = append(rotated, atoms[driver+1:]...)
		atoms = rotated
	}
	// A restricted variant without a driver (DRed's first rederive round)
	// whose head arguments are all plain variables scans the restricting
	// relation as the outermost level: the head tuple binds every head
	// variable, so the body levels re-derive only the restricted heads. A
	// restricted variant with a driver (a rederive loop variant) keeps its
	// frontier outermost, so each round costs its dred_R frontier rather
	// than the whole overdeleted set, and — like any other restricted head —
	// tests the head against the restricting relation at the end.
	headScan := v.restrict != nil && driver < 0 && len(c.Head.Args) > 0
	for _, e := range c.Head.Args {
		if _, ok := e.(*ast.Var); !ok {
			headScan = false
		}
	}
	if headScan {
		atoms = append([]bodyAtom{{atom: c.Head, pos: -1, rel: v.restrict}}, atoms...)
	}

	// Build inside-out: we construct a list of "levels" and nest at the
	// end. Each level is a function wrapping an inner operation.
	type level func(inner ram.Operation) ram.Operation
	var levels []level
	emitted := make([]bool, len(defers))

	// attachReady emits deferred literals whose variables are all bound.
	var attachReady func() error
	attachReady = func() error {
		for progress := true; progress; {
			progress = false
			for i, d := range defers {
				if emitted[i] {
					continue
				}
				ok, lv, err := tr.tryDeferred(d.lit)
				if err != nil {
					return err
				}
				if ok {
					if lv != nil {
						levels = append(levels, lv)
					}
					emitted[i] = true
					progress = true
				}
			}
		}
		return nil
	}

	if err := attachReady(); err != nil {
		return nil, err
	}
	for _, ba := range atoms {
		tidBefore := tr.tid
		lv, err := tr.atomLevel(ba.atom, ba.rel)
		if err != nil {
			return nil, err
		}
		levels = append(levels, lv)
		// Delete-variant membership filters over the atom's whole tuple:
		// ¬∈exclude, weakened to ¬(∈exclude ∧ ¬∈unless) when an unless
		// relation is given. forceScan guarantees the atom allocated tuple
		// slot tidBefore rather than collapsing to an existence check.
		if exRel := v.exclude[ba.pos]; exRel != nil {
			cond := excludeCond(exRel, v.excludeUnless[ba.pos], func(k int) ram.Expr {
				return &ram.TupleElement{TupleID: tidBefore, Elem: k}
			})
			levels = append(levels, func(inner ram.Operation) ram.Operation {
				return &ram.Filter{Cond: cond, Nested: inner}
			})
		}
		if err := attachReady(); err != nil {
			return nil, err
		}
	}
	for i := range defers {
		if !emitted[i] {
			return nil, &Error{Msg: fmt.Sprintf("internal: literal %s never became ground", ast.LiteralString(defers[i].lit)), Pos: c.Pos}
		}
	}

	// Head projection, optionally guarded by "not already known".
	head := make([]ram.Expr, len(c.Head.Args))
	for i, e := range c.Head.Args {
		re, err := tr.expr(e)
		if err != nil {
			return nil, err
		}
		head[i] = re
	}
	var root ram.Operation = &ram.Project{Rel: v.target, Exprs: head}
	for i := len(v.survive) - 1; i >= 0; i-- {
		s := v.survive[i]
		cond := excludeCond(s.rel, s.del, func(k int) ram.Expr { return head[s.key[k]] })
		root = &ram.Filter{Cond: cond, Nested: root}
	}
	if v.guard != nil {
		ex := &ram.ExistenceCheck{Rel: v.guard, Pattern: head}
		root = &ram.Filter{Cond: &ram.Not{C: ex}, Nested: root}
	}
	if v.restrict != nil && !headScan {
		ex := &ram.ExistenceCheck{Rel: v.restrict, Pattern: head}
		root = &ram.Filter{Cond: ex, Nested: root}
	}
	for i := len(levels) - 1; i >= 0; i-- {
		root = levels[i](root)
	}

	// Emptiness guards over all scanned relations (paper Fig 3 line 5).
	var guard ram.Condition
	for _, ba := range atoms {
		guard = ram.Conj(guard, &ram.Not{C: &ram.EmptinessCheck{Rel: ba.rel}})
	}
	if guard != nil {
		root = &ram.Filter{Cond: guard, Nested: root}
	}

	label := c.String()
	if headScan {
		label += fmt.Sprintf(" [head<-%s]", v.restrict.Name)
	}
	for i := range c.Body {
		if r := v.subst[i]; r != nil {
			label += fmt.Sprintf(" [%s@%d]", r.Kind, i)
		}
	}
	t.ruleID++
	return &ram.Query{
		Root:      root,
		NumTuples: tr.tid,
		RuleID:    t.ruleID - 1,
		Label:     label,
		Parallel:  true,
	}, nil
}

// excludeCond builds a delete-variant membership filter over the tuple
// whose k-th element is key(k): ¬(t ∈ exclude), or with an unless relation
// the DRed survival test ¬(t ∈ exclude ∧ t ∉ unless) — "not deleted, or
// rederived" over an atom's tuple slot, "not still derived" over a head.
func excludeCond(exclude, unless *ram.Relation, key func(k int) ram.Expr) ram.Condition {
	member := func(rel *ram.Relation) *ram.ExistenceCheck {
		pat := make([]ram.Expr, rel.Arity)
		for k := range pat {
			pat[k] = key(k)
		}
		return &ram.ExistenceCheck{Rel: rel, Pattern: pat}
	}
	exDel := member(exclude)
	if unless == nil {
		return &ram.Not{C: exDel}
	}
	return &ram.Not{C: &ram.And{L: exDel, R: &ram.Not{C: member(unless)}}}
}

// atomLevel turns a positive body atom into a scan level, or into an
// existence-check filter when no variable it binds is read again.
func (tr *ruleTranslator) atomLevel(at *ast.Atom, rel *ram.Relation) (func(ram.Operation) ram.Operation, error) {
	tid := tr.tid
	b, err := tr.bindAtom(at, rel, tid)
	if err != nil {
		return nil, err
	}
	if len(b.binds) == 0 && !tr.forceScan {
		ex := &ram.ExistenceCheck{Rel: rel, Pattern: b.pattern}
		return func(inner ram.Operation) ram.Operation {
			return &ram.Filter{Cond: ex, Nested: inner}
		}, nil
	}
	tr.tid++
	maps.Copy(tr.env, b.binds)
	return func(inner ram.Operation) ram.Operation {
		if b.eqs != nil {
			inner = &ram.Filter{Cond: b.eqs, Nested: inner}
		}
		return &ram.Scan{Rel: rel, Pattern: b.pattern, TupleID: tid, Nested: inner}
	}, nil
}

// atomBinding is a body atom bound to one tuple slot: the search pattern
// over its relation, the new variables bound to elements of the slot, and
// the equalities a repeated new variable imposes between those elements.
type atomBinding struct {
	pattern []ram.Expr
	binds   map[string]ram.Expr
	eqs     ram.Condition
}

// bindAtom binds atom at, read from rel, to tuple slot tid. It is the one
// binder of positive atoms, negations and aggregate bodies. A bound variable
// or a ground expression keys the search; a new variable binds to its
// element on its first occurrence when the clause reads it again (a
// single-use one is a wildcard), and each further occurrence in the atom is
// an equality against the first. An argument expression that reads one of
// the atom's new variables (e(x, x+1)) is an equality too: its element
// against the expression over the elements those variables bind to.
//
// An eqrel keeps only its natural order, so a search keying only column 1
// is bound as its mirror keying column 0: the relation is symmetric, so
// (a, b) is in it exactly when (b, a) is, and the new variables bind to the
// swapped elements. Served queries answer an eqrel's (_, b) by the same
// rule (interp.Engine.Query).
func (tr *ruleTranslator) bindAtom(at *ast.Atom, rel *ram.Relation, tid int) (atomBinding, error) {
	args := at.Args
	keyed := func(e ast.Expr) bool {
		_, w := e.(*ast.Wildcard)
		return !w && tr.ground(e)
	}
	if rel.Rep == ram.RepEqRel && !keyed(args[0]) && keyed(args[1]) {
		args = []ast.Expr{args[1], args[0]}
	}
	b := atomBinding{pattern: make([]ram.Expr, rel.Arity), binds: map[string]ram.Expr{}}
	first := map[string]int{} // new variable -> its first position
	var exprs []int           // positions of argument expressions
	for i, e := range args {
		switch e := e.(type) {
		case *ast.Wildcard:
		case *ast.Var:
			if v, ok := tr.env[e.Name]; ok {
				b.pattern[i] = v
				continue
			}
			elem := &ram.TupleElement{TupleID: tid, Elem: i}
			if f, dup := first[e.Name]; dup {
				b.eqs = ram.Conj(b.eqs, &ram.Constraint{
					Op: ram.CmpEQ, Type: rel.Types[i],
					L: elem, R: &ram.TupleElement{TupleID: tid, Elem: f},
				})
				continue
			}
			first[e.Name] = i
			if tr.uses[e.Name] > 1 {
				b.binds[e.Name] = elem
			}
		default:
			exprs = append(exprs, i)
		}
	}
	for _, i := range exprs {
		if tr.ground(args[i]) {
			re, err := tr.expr(args[i])
			if err != nil {
				return atomBinding{}, err
			}
			b.pattern[i] = re
			continue
		}
		// The expression reads new variables of this atom: translate it
		// with them bound to their elements, then unbind them again.
		maps.Copy(tr.env, b.binds)
		re, err := tr.expr(args[i])
		for name := range b.binds {
			delete(tr.env, name)
		}
		if err != nil {
			return atomBinding{}, err
		}
		b.eqs = ram.Conj(b.eqs, &ram.Constraint{
			Op: ram.CmpEQ, Type: rel.Types[i],
			L: &ram.TupleElement{TupleID: tid, Elem: i}, R: re,
		})
	}
	return b, nil
}

// tryDeferred attempts to emit a negation or constraint whose variables are
// now bound. Returns (emitted, level, err); level may be nil when the
// literal only extends the environment.
func (tr *ruleTranslator) tryDeferred(l ast.Literal) (bool, func(ram.Operation) ram.Operation, error) {
	switch l := l.(type) {
	case *ast.Negation:
		for _, e := range l.Atom.Args {
			if !tr.ground(e) {
				return false, nil, nil
			}
		}
		rel := tr.t.rels[l.Atom.Name]
		b, err := tr.bindAtom(l.Atom, rel, -1)
		if err != nil {
			return false, nil, err
		}
		ex := &ram.ExistenceCheck{Rel: rel, Pattern: b.pattern}
		return true, func(inner ram.Operation) ram.Operation {
			return &ram.Filter{Cond: &ram.Not{C: ex}, Nested: inner}
		}, nil

	case *ast.Constraint:
		// Aggregates may appear on either side of a binding equality.
		if agg, ok := aggregateSide(l); ok {
			return tr.tryAggregate(l, agg)
		}
		// Binding equality: v = ground-expr (or ground-expr = v).
		if l.Op == ast.CmpEQ {
			for _, side := range [][2]ast.Expr{{l.L, l.R}, {l.R, l.L}} {
				v, ok := side[0].(*ast.Var)
				if !ok || tr.ground(v) || !tr.ground(side[1]) {
					continue
				}
				e, err := tr.expr(side[1])
				if err != nil {
					return false, nil, err
				}
				tr.env[v.Name] = e
				return true, nil, nil
			}
		}
		if !tr.ground(l.L) || !tr.ground(l.R) {
			return false, nil, nil
		}
		le, err := tr.expr(l.L)
		if err != nil {
			return false, nil, err
		}
		re, err := tr.expr(l.R)
		if err != nil {
			return false, nil, err
		}
		cond := &ram.Constraint{Op: cmpOf(l.Op), Type: tr.typeOf(l.L, l.R), L: le, R: re}
		return true, func(inner ram.Operation) ram.Operation {
			return &ram.Filter{Cond: cond, Nested: inner}
		}, nil
	}
	return false, nil, &Error{Msg: fmt.Sprintf("unsupported deferred literal %T", l)}
}

// aggregateSide detects "x = AGG" / "AGG = x" constraints.
func aggregateSide(c *ast.Constraint) (*ast.Aggregate, bool) {
	if c.Op != ast.CmpEQ {
		return nil, false
	}
	if a, ok := c.L.(*ast.Aggregate); ok {
		return a, true
	}
	if a, ok := c.R.(*ast.Aggregate); ok {
		return a, true
	}
	return nil, false
}

// tryAggregate emits an Aggregate level for "v = agg : { body }". The
// aggregate body must be a single positive atom plus constraints over its
// variables (matching what Soufflé's RAM Aggregate expresses; richer bodies
// would need materialized auxiliary relations).
func (tr *ruleTranslator) tryAggregate(c *ast.Constraint, agg *ast.Aggregate) (bool, func(ram.Operation) ram.Operation, error) {
	// Identify the result expression (the non-aggregate side).
	resultSide := c.L
	if resultSide == agg {
		resultSide = c.R
	}

	var atom *ast.Atom
	var conss []*ast.Constraint
	for _, l := range agg.Body {
		switch l := l.(type) {
		case *ast.Atom:
			if atom != nil {
				return false, nil, &Error{Msg: "aggregate bodies are limited to one positive atom", Pos: agg.Pos}
			}
			atom = l
		case *ast.Constraint:
			conss = append(conss, l)
		default:
			return false, nil, &Error{Msg: "aggregate bodies are limited to atoms and constraints", Pos: agg.Pos}
		}
	}
	if atom == nil {
		return false, nil, &Error{Msg: "aggregate body needs a positive atom", Pos: agg.Pos}
	}

	rel := tr.t.rels[atom.Name]
	// A variable is *local* to the aggregate iff all of its occurrences in
	// the clause are inside this aggregate; anything else is an outer
	// variable and must already be bound (otherwise we defer and retry
	// after a later scan binds it).
	inAgg := map[string]int{}
	countVars := func(e ast.Expr) {
		ast.WalkExpr(e, func(sub ast.Expr) {
			if v, ok := sub.(*ast.Var); ok {
				inAgg[v.Name]++
			}
		})
	}
	ast.WalkLiterals(agg.Body, countVars)
	if agg.Target != nil {
		countVars(agg.Target)
	}
	local := map[string]bool{}
	for name, cnt := range inAgg {
		if tr.uses[name] <= cnt {
			local[name] = true
		}
	}
	// Outer variables must be bound before the aggregate can be placed.
	for name := range inAgg {
		if local[name] {
			continue
		}
		if _, bound := tr.env[name]; !bound {
			return false, nil, nil
		}
	}
	groundInAgg := func(e ast.Expr) bool {
		ok := true
		ast.WalkExpr(e, func(sub ast.Expr) {
			if v, isV := sub.(*ast.Var); isV {
				if _, bound := tr.env[v.Name]; !bound && !local[v.Name] {
					ok = false
				}
			}
		})
		return ok
	}
	for _, e := range atom.Args {
		if _, isV := e.(*ast.Var); isV {
			continue
		}
		if _, isW := e.(*ast.Wildcard); isW {
			continue
		}
		if !groundInAgg(e) {
			return false, nil, nil
		}
	}
	for _, cc := range conss {
		if !groundInAgg(cc.L) || !groundInAgg(cc.R) {
			return false, nil, nil
		}
	}
	if agg.Target != nil && !groundInAgg(agg.Target) {
		return false, nil, nil
	}
	// The result side is a variable the aggregate binds or compares, or a
	// ground expression it compares.
	if _, isVar := resultSide.(*ast.Var); !isVar && !tr.ground(resultSide) {
		return false, nil, nil
	}

	// Bind the atom to the aggregate's tuple slot: local variables are in
	// scope for the inner condition and target only.
	tid := tr.tid
	tr.tid++
	b, err := tr.bindAtom(atom, rel, tid)
	if err != nil {
		return false, nil, err
	}
	maps.Copy(tr.env, b.binds)
	cond := b.eqs
	for _, cc := range conss {
		le, err := tr.expr(cc.L)
		if err != nil {
			return false, nil, err
		}
		re, err := tr.expr(cc.R)
		if err != nil {
			return false, nil, err
		}
		cond = ram.Conj(cond, &ram.Constraint{Op: cmpOf(cc.Op), Type: tr.typeOf(cc.L, cc.R), L: le, R: re})
	}
	var target ram.Expr
	aggType := value.Number
	if agg.Target != nil {
		target, err = tr.expr(agg.Target)
		if err != nil {
			return false, nil, err
		}
		if ty, ok := tr.info.VarTypes[varName(agg.Target)]; ok {
			aggType = ty
		}
	}
	// Remove the local bindings: after the aggregate only the result slot
	// remains visible.
	for name := range b.binds {
		delete(tr.env, name)
	}

	node := &ram.Aggregate{
		Kind:    aggKindOf(agg.Kind),
		Rel:     rel,
		Pattern: b.pattern,
		Cond:    cond,
		Target:  target,
		Type:    aggType,
		TupleID: tid,
	}

	// Bind or compare the result.
	result := &ram.TupleElement{TupleID: tid, Elem: 0}
	if v, ok := resultSide.(*ast.Var); ok && !tr.ground(v) {
		tr.env[v.Name] = result
		return true, func(inner ram.Operation) ram.Operation {
			node.Nested = inner
			return node
		}, nil
	}
	re, err := tr.expr(resultSide)
	if err != nil {
		return false, nil, err
	}
	eq := &ram.Constraint{Op: ram.CmpEQ, Type: aggType, L: result, R: re}
	return true, func(inner ram.Operation) ram.Operation {
		node.Nested = &ram.Filter{Cond: eq, Nested: inner}
		return node
	}, nil
}

func varName(e ast.Expr) string {
	if v, ok := e.(*ast.Var); ok {
		return v.Name
	}
	return ""
}

func aggKindOf(k ast.AggKind) ram.AggKind {
	switch k {
	case ast.AggSum:
		return ram.AggSum
	case ast.AggMin:
		return ram.AggMin
	case ast.AggMax:
		return ram.AggMax
	default:
		return ram.AggCount
	}
}

func cmpOf(op ast.CmpOp) ram.CmpOp {
	return [...]ram.CmpOp{ram.CmpEQ, ram.CmpNE, ram.CmpLT, ram.CmpLE, ram.CmpGT, ram.CmpGE}[op]
}

// ground reports whether all variables in e are currently bound.
func (tr *ruleTranslator) ground(e ast.Expr) bool {
	ok := true
	ast.WalkExpr(e, func(sub ast.Expr) {
		if v, isV := sub.(*ast.Var); isV {
			if _, bound := tr.env[v.Name]; !bound {
				ok = false
			}
		}
	})
	return ok
}

// typeOf infers the shared type of a constraint's operands.
func (tr *ruleTranslator) typeOf(exprs ...ast.Expr) value.Type {
	for _, e := range exprs {
		if t, ok := tr.staticType(e); ok {
			return t
		}
	}
	return value.Number
}

func (tr *ruleTranslator) staticType(e ast.Expr) (value.Type, bool) {
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
		t, ok := tr.info.VarTypes[e.Name]
		return t, ok
	case *ast.BinExpr:
		if t, ok := tr.staticType(e.L); ok {
			return t, true
		}
		return tr.staticType(e.R)
	case *ast.UnExpr:
		return tr.staticType(e.E)
	case *ast.Call:
		switch e.Name {
		case "cat", "substr", "to_string":
			return value.Symbol, true
		case "strlen", "ord", "to_number":
			return value.Number, true
		case "min", "max":
			if len(e.Args) > 0 {
				return tr.staticType(e.Args[0])
			}
		}
		return 0, false
	case *ast.Aggregate:
		if e.Kind == ast.AggCount {
			return value.Number, true
		}
		if e.Target != nil {
			return tr.staticType(e.Target)
		}
		return 0, false
	default:
		return 0, false
	}
}

// expr lowers an AST expression under the current environment.
func (tr *ruleTranslator) expr(e ast.Expr) (ram.Expr, error) {
	switch e := e.(type) {
	case *ast.NumLit:
		return &ram.Constant{Val: value.FromInt(e.Val)}, nil
	case *ast.UnsignedLit:
		return &ram.Constant{Val: e.Val}, nil
	case *ast.FloatLit:
		return &ram.Constant{Val: value.FromFloat(e.Val)}, nil
	case *ast.StrLit:
		return &ram.Constant{Val: tr.t.st.Intern(e.Val)}, nil
	case *ast.Var:
		b, ok := tr.env[e.Name]
		if !ok {
			return nil, &Error{Msg: fmt.Sprintf("internal: variable %s unbound during lowering", e.Name), Pos: e.Pos}
		}
		return b, nil
	case *ast.Wildcard:
		return nil, &Error{Msg: "wildcard in a value position", Pos: e.Pos}
	case *ast.BinExpr:
		l, err := tr.expr(e.L)
		if err != nil {
			return nil, err
		}
		r, err := tr.expr(e.R)
		if err != nil {
			return nil, err
		}
		ty := tr.typeOf(e.L, e.R)
		return &ram.Intrinsic{Op: binOpOf(e.Op), Type: ty, Args: []ram.Expr{l, r}}, nil
	case *ast.UnExpr:
		a, err := tr.expr(e.E)
		if err != nil {
			return nil, err
		}
		ty := tr.typeOf(e.E)
		var op ram.IntrinsicOp
		switch e.Op {
		case ast.OpNeg:
			op = ram.OpNeg
		case ast.OpBNot:
			op = ram.OpBNot
		default:
			op = ram.OpLNot
		}
		return &ram.Intrinsic{Op: op, Type: ty, Args: []ram.Expr{a}}, nil
	case *ast.Call:
		args := make([]ram.Expr, len(e.Args))
		for i, a := range e.Args {
			ra, err := tr.expr(a)
			if err != nil {
				return nil, err
			}
			args[i] = ra
		}
		op, ty, err := callOpOf(e, tr)
		if err != nil {
			return nil, err
		}
		return &ram.Intrinsic{Op: op, Type: ty, Args: args}, nil
	case *ast.Aggregate:
		return nil, &Error{Msg: "aggregates are only supported in equalities of the form v = agg : { ... }", Pos: e.Pos}
	default:
		return nil, &Error{Msg: fmt.Sprintf("unsupported expression %T", e)}
	}
}

func binOpOf(op ast.BinOp) ram.IntrinsicOp {
	return [...]ram.IntrinsicOp{
		ram.OpAdd, ram.OpSub, ram.OpMul, ram.OpDiv, ram.OpMod, ram.OpPow,
		ram.OpBAnd, ram.OpBOr, ram.OpBXor, ram.OpBShl, ram.OpBShr,
		ram.OpLAnd, ram.OpLOr,
	}[op]
}

func callOpOf(e *ast.Call, tr *ruleTranslator) (ram.IntrinsicOp, value.Type, error) {
	switch e.Name {
	case "cat":
		return ram.OpCat, value.Symbol, nil
	case "strlen":
		return ram.OpStrlen, value.Number, nil
	case "substr":
		return ram.OpSubstr, value.Symbol, nil
	case "ord":
		return ram.OpOrd, value.Number, nil
	case "to_number":
		return ram.OpToNumber, value.Number, nil
	case "to_string":
		return ram.OpToString, value.Symbol, nil
	case "min":
		return ram.OpMin, tr.typeOf(e.Args...), nil
	case "max":
		return ram.OpMax, tr.typeOf(e.Args...), nil
	default:
		return 0, 0, &Error{Msg: fmt.Sprintf("unknown functor %s", e.Name), Pos: e.Pos}
	}
}
