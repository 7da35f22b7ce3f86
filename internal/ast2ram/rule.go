package ast2ram

import (
	"fmt"

	"sti/internal/ast"
	"sti/internal/indexselect"
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
	tr := &ruleTranslator{t: t, info: info, env: map[string]ram.Expr{}, forceScan: v.exclude != nil}

	// Count variable uses to recognize single-use variables (treated like
	// wildcards: they never need a binding).
	uses := map[string]int{}
	c.Walk(func(e ast.Expr) {
		if vv, ok := e.(*ast.Var); ok {
			uses[vv.Name]++
		}
	})
	tr.uses = uses

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
	// A restricted variant whose head arguments are all plain variables
	// scans the restricting relation as the outermost level: the head tuple
	// binds every head variable, so the body levels re-derive only the
	// restricted heads. Any other restricted head is filtered at the end.
	headScan := v.restrict != nil && len(c.Head.Args) > 0
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
		lv, err := tr.atomLevel(ba.atom, ba.rel, uses)
		if err != nil {
			return nil, err
		}
		if lv != nil {
			levels = append(levels, lv)
		}
		// Delete-variant membership filters over the atom's whole tuple:
		// ¬∈exclude, weakened to ¬(∈exclude ∧ ¬∈unless) when an unless
		// relation is given. forceScan guarantees the atom allocated tuple
		// slot tidBefore rather than collapsing to an existence check.
		if exRel := v.exclude[ba.pos]; exRel != nil {
			cond := excludeCond(tr, exRel, v.excludeUnless[ba.pos], tidBefore)
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
		var cnd ram.Condition = &ram.Not{C: &ram.EmptinessCheck{Rel: ba.rel}}
		if guard == nil {
			guard = cnd
		} else {
			guard = &ram.And{L: guard, R: cnd}
		}
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

// excludeCond builds a delete-variant membership filter over the whole tuple
// bound at slot tid: ¬(t ∈ exclude), or with an unless relation the DRed
// survival test ¬(t ∈ exclude ∧ t ∉ unless) — "not deleted, or rederived".
func excludeCond(tr *ruleTranslator, exclude, unless *ram.Relation, tid int) ram.Condition {
	member := func(rel *ram.Relation) *ram.ExistenceCheck {
		pat := make([]ram.Expr, rel.Arity)
		for k := range pat {
			pat[k] = &ram.TupleElement{TupleID: tid, Elem: k}
		}
		ex := &ram.ExistenceCheck{Rel: rel, Pattern: pat}
		return ex
	}
	exDel := member(exclude)
	if unless == nil {
		return &ram.Not{C: exDel}
	}
	return &ram.Not{C: &ram.And{L: exDel, R: &ram.Not{C: member(unless)}}}
}

// atomLevel turns a positive body atom into a scan/index-scan/existence
// level. Returns nil when the atom degenerates to a pure filter.
func (tr *ruleTranslator) atomLevel(at *ast.Atom, rel *ram.Relation, uses map[string]int) (func(ram.Operation) ram.Operation, error) {
	pattern := make([]ram.Expr, rel.Arity)
	var sig indexselect.Signature
	type bindPos struct {
		name string
		pos  int
	}
	var binds []bindPos
	type eqPos struct {
		pos   int
		other ram.Expr // equality against an earlier position of this tuple
		typ   value.Type
	}
	var eqs []eqPos
	needsScan := false

	seen := map[string]int{} // var name -> first position in this atom
	for i, e := range at.Args {
		switch e := e.(type) {
		case *ast.Wildcard:
			// unbound, unused
		case *ast.Var:
			if b, ok := tr.env[e.Name]; ok {
				pattern[i] = b
				sig |= indexselect.Of(i)
				continue
			}
			if first, dup := seen[e.Name]; dup {
				// Same new variable twice in one atom: equality filter
				// between tuple positions.
				eqs = append(eqs, eqPos{pos: i, other: nil, typ: rel.Types[i]})
				eqs[len(eqs)-1].other = &ram.TupleElement{TupleID: -1, Elem: first} // patched below
				needsScan = true
				continue
			}
			seen[e.Name] = i
			if uses[e.Name] > 1 {
				binds = append(binds, bindPos{name: e.Name, pos: i})
				needsScan = true
			}
		default:
			re, err := tr.expr(e)
			if err != nil {
				return nil, err
			}
			pattern[i] = re
			sig |= indexselect.Of(i)
		}
	}

	tid := tr.tid
	bound := sig.Count()

	if !needsScan && len(binds) == 0 && !tr.forceScan {
		// No bindings escape: a (partial) existence check suffices.
		ex := &ram.ExistenceCheck{Rel: rel, Pattern: pattern}
		return func(inner ram.Operation) ram.Operation {
			return &ram.Filter{Cond: ex, Nested: inner}
		}, nil
	}

	// A real scan: allocate the tuple slot and bind variables.
	tr.tid++
	for _, b := range binds {
		tr.env[b.name] = &ram.TupleElement{TupleID: tid, Elem: b.pos}
	}
	// Build the equality filters for duplicate variables.
	var eqCond ram.Condition
	for _, eq := range eqs {
		other := eq.other.(*ram.TupleElement)
		other.TupleID = tid
		var c ram.Condition = &ram.Constraint{
			Op:   ram.CmpEQ,
			Type: eq.typ,
			L:    &ram.TupleElement{TupleID: tid, Elem: eq.pos},
			R:    other,
		}
		if eqCond == nil {
			eqCond = c
		} else {
			eqCond = &ram.And{L: eqCond, R: c}
		}
	}

	if bound == 0 {
		return func(inner ram.Operation) ram.Operation {
			if eqCond != nil {
				inner = &ram.Filter{Cond: eqCond, Nested: inner}
			}
			return &ram.Scan{Rel: rel, TupleID: tid, Nested: inner}
		}, nil
	}

	// eqrel only supports prefix searches on its natural order; fall back
	// to scan+filter for anything else.
	if rel.Rep == ram.RepEqRel && !isPrefixOfNatural(sig) {
		var cond ram.Condition
		for i, p := range pattern {
			if p == nil {
				continue
			}
			var c ram.Condition = &ram.Constraint{
				Op:   ram.CmpEQ,
				Type: rel.Types[i],
				L:    &ram.TupleElement{TupleID: tid, Elem: i},
				R:    p,
			}
			if cond == nil {
				cond = c
			} else {
				cond = &ram.And{L: cond, R: c}
			}
		}
		return func(inner ram.Operation) ram.Operation {
			if eqCond != nil {
				inner = &ram.Filter{Cond: eqCond, Nested: inner}
			}
			return &ram.Scan{Rel: rel, TupleID: tid, Nested: &ram.Filter{Cond: cond, Nested: inner}}
		}, nil
	}

	is := &ram.IndexScan{Rel: rel, Pattern: pattern, TupleID: tid}
	return func(inner ram.Operation) ram.Operation {
		if eqCond != nil {
			inner = &ram.Filter{Cond: eqCond, Nested: inner}
		}
		is.Nested = inner
		return is
	}, nil
}

func isPrefixOfNatural(sig indexselect.Signature) bool {
	cols := sig.Columns()
	for i, c := range cols {
		if c != i {
			return false
		}
	}
	return true
}

// tryDeferred attempts to emit a negation or constraint whose variables are
// now bound. Returns (emitted, level, err); level may be nil when the
// literal only extends the environment.
func (tr *ruleTranslator) tryDeferred(l ast.Literal) (bool, func(ram.Operation) ram.Operation, error) {
	switch l := l.(type) {
	case *ast.Negation:
		pattern := make([]ram.Expr, len(l.Atom.Args))
		rel := tr.t.rels[l.Atom.Name]
		var sig indexselect.Signature
		for i, e := range l.Atom.Args {
			if _, isW := e.(*ast.Wildcard); isW {
				continue
			}
			if !tr.ground(e) {
				return false, nil, nil
			}
			re, err := tr.expr(e)
			if err != nil {
				return false, nil, err
			}
			pattern[i] = re
			sig |= indexselect.Of(i)
		}
		if rel.Rep == ram.RepEqRel && !isPrefixOfNatural(sig) && sig.Count() != rel.Arity {
			return false, nil, &Error{Msg: "negation over eqrel requires a natural prefix", Pos: l.Atom.Pos}
		}
		ex := &ram.ExistenceCheck{Rel: rel, Pattern: pattern}
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
			if v, ok := l.L.(*ast.Var); ok {
				if _, bound := tr.env[v.Name]; !bound && tr.ground(l.R) {
					re, err := tr.expr(l.R)
					if err != nil {
						return false, nil, err
					}
					tr.env[v.Name] = re
					return true, nil, nil
				}
			}
			if v, ok := l.R.(*ast.Var); ok {
				if _, bound := tr.env[v.Name]; !bound && tr.ground(l.L) {
					le, err := tr.expr(l.L)
					if err != nil {
						return false, nil, err
					}
					tr.env[v.Name] = le
					return true, nil, nil
				}
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

	// Build the pattern from bound positions; bind local variables to the
	// aggregate's tuple slot.
	tid := tr.tid
	tr.tid++
	pattern := make([]ram.Expr, rel.Arity)
	var sig indexselect.Signature
	savedEnv := map[string]ram.Expr{}
	var selfEq ram.Condition
	for i, e := range atom.Args {
		switch e := e.(type) {
		case *ast.Wildcard:
		case *ast.Var:
			if b, bound := tr.env[e.Name]; bound {
				// A repeated local variable refers back to this aggregate's
				// own tuple; that is a per-tuple equality, not a pattern.
				if te, isTE := b.(*ram.TupleElement); isTE && te.TupleID == tid {
					eq := &ram.Constraint{
						Op: ram.CmpEQ, Type: rel.Types[i],
						L: &ram.TupleElement{TupleID: tid, Elem: i}, R: b,
					}
					if selfEq == nil {
						selfEq = eq
					} else {
						selfEq = &ram.And{L: selfEq, R: eq}
					}
					continue
				}
				pattern[i] = b
				sig |= indexselect.Of(i)
			} else if _, already := savedEnv[e.Name]; !already {
				savedEnv[e.Name] = nil
				tr.env[e.Name] = &ram.TupleElement{TupleID: tid, Elem: i}
			}
		default:
			re, err := tr.expr(e)
			if err != nil {
				return false, nil, err
			}
			pattern[i] = re
			sig |= indexselect.Of(i)
		}
	}
	if rel.Rep == ram.RepEqRel && !isPrefixOfNatural(sig) {
		return false, nil, &Error{Msg: "aggregate over eqrel requires a natural prefix", Pos: agg.Pos}
	}

	// Inner condition and target, evaluated with local bindings in scope.
	cond := selfEq
	for _, cc := range conss {
		le, err := tr.expr(cc.L)
		if err != nil {
			return false, nil, err
		}
		re, err := tr.expr(cc.R)
		if err != nil {
			return false, nil, err
		}
		var one ram.Condition = &ram.Constraint{Op: cmpOf(cc.Op), Type: tr.typeOf(cc.L, cc.R), L: le, R: re}
		if cond == nil {
			cond = one
		} else {
			cond = &ram.And{L: cond, R: one}
		}
	}
	var target ram.Expr
	aggType := value.Number
	if agg.Target != nil {
		var err error
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
	for name := range savedEnv {
		delete(tr.env, name)
	}

	node := &ram.Aggregate{
		Kind:    aggKindOf(agg.Kind),
		Rel:     rel,
		IndexID: -1,
		Pattern: pattern,
		Cond:    cond,
		Target:  target,
		Type:    aggType,
		TupleID: tid,
	}

	// Bind or compare the result.
	result := &ram.TupleElement{TupleID: tid, Elem: 0}
	var post func(ram.Operation) ram.Operation
	if v, ok := resultSide.(*ast.Var); ok {
		if _, bound := tr.env[v.Name]; !bound {
			tr.env[v.Name] = result
			post = func(inner ram.Operation) ram.Operation { return inner }
		}
	}
	if post == nil {
		if !tr.ground(resultSide) {
			return false, nil, nil
		}
		re, err := tr.expr(resultSide)
		if err != nil {
			return false, nil, err
		}
		eq := &ram.Constraint{Op: ram.CmpEQ, Type: aggType, L: result, R: re}
		post = func(inner ram.Operation) ram.Operation {
			return &ram.Filter{Cond: eq, Nested: inner}
		}
	}
	return true, func(inner ram.Operation) ram.Operation {
		node.Nested = post(inner)
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
