// Package ramopt implements the RAM-to-RAM optimization stage, the
// pre-runtime optimization the paper locates at the RAM level (§2, Fig 3).
// All passes preserve the program's least fixpoint exactly. The stage is a
// fixed part of the product pipeline: sti.Parse always ends with
// Optimize(..., Queryable()). (internal/bench alone runs the unoptimized
// translation, matching the paper's measurement setup.)
//
// Passes, in pipeline order:
//
//   - constant folding: intrinsic sub-expressions over constants are
//     evaluated at optimization time (including string functors through the
//     symbol table);
//   - existence checks: a scan or choice whose pattern binds every column to
//     an element of an enclosing tuple can match only that tuple, so it
//     becomes a filter over an existence check on the same index, and the
//     elements of its own tuple under it are replaced by the pattern. DRed's
//     head-scan rederive round (a deleted head re-proved through the rule
//     body) searches its last body atom this way;
//   - filter fusion: chains of nested filters collapse into one filter with
//     a conjunction, removing interpreter dispatches per level;
//   - choice conversion: a scan whose bound tuple is referenced only by the
//     immediately following filters — not by the projection or any deeper
//     operation — only needs *one* witness, so it becomes a choice over the
//     same search that stops at the first match. A search whose full-key
//     body search became an existence check qualifies in turn: the rederive
//     round stops at the first proof.
//
// All four are peephole rewrites of every entry point: Main, and the
// incremental Update and Delete programs a resident database runs once per
// applied batch, where a statement's fixed cost weighs most. None adds a
// search, unbinds a pattern position or drops a range bound, and the one
// search it removes becomes an existence check with the same pattern on the
// same index, so the index orders and IndexIDs the translator's index
// selection (indexselect.Assign) wrote stay valid; the
// armed verifier's index-id and index-prefix rules catch a pass that breaks
// that. Every pass keeps every relation queryable after the run
// (sti.Result, Explain, Database observe all of them), so there is one pass
// set.
package ramopt

import (
	"sti/internal/ram"
	"sti/internal/ram/verify"
	"sti/internal/rtl"
	"sti/internal/symtab"
	"sti/internal/value"
)

// Options is the pass set. It has one value, Queryable; individual passes
// are not selectable.
type Options struct{}

// Queryable is the pass set: every pass, all of which keep every relation
// queryable. It is what the product pipeline (sti.Parse) runs.
func Queryable() Options { return Options{} }

// All is an alias of Queryable, kept only because the perfbench module's
// ramopt.optimize_ms probe calls it. It goes, together with the Options
// parameter, once perfbench stops calling it.
func All() Options { return Queryable() }

// pass is one stage of the optimizer pipeline.
type pass struct {
	name string
	run  func(*ram.Program, *symtab.Table)
}

// passes is the pipeline, in order. The peephole rewrites share one tree
// walk (optimizer) parameterized by the rewrite it applies. Existence checks
// run before fusion, so that the filter a full-key search leaves joins the
// filters around it, and before choices, which then see that filter.
var passes = []pass{
	{name: "fold-constants", run: optimizer{foldConstants: true}.run},
	{name: "existence-checks", run: optimizer{existence: true}.run},
	{name: "fuse-filters", run: optimizer{fuseFilters: true}.run},
	{name: "choices", run: optimizer{choices: true}.run},
}

// Stats is the size of the program the optimizer was given. It and
// OptimizeStats are kept only because the perfbench module's ram.nodes probe
// reads them, like All; no pass removes a statement or an index order, so
// there is no after to report.
type Stats struct {
	StatementsBefore int
}

// Optimize rewrites the program in place. In ramverify debug mode the
// program is re-verified after every pass and a violated invariant panics
// with a *verify.Error whose stage names the pass ("ramopt/fuse-filters")
// and whose excerpt marks the offending node — an optimizer bug is a
// programming error, not a user error.
func Optimize(p *ram.Program, st *symtab.Table, _ Options) {
	for _, ps := range passes {
		ps.run(p, st)
		if verify.Debugging() {
			if err := verify.Check(p, "ramopt/"+ps.name); err != nil {
				panic(err)
			}
		}
	}
}

// OptimizeStats is Optimize returning the size of the program it was given.
func OptimizeStats(p *ram.Program, st *symtab.Table, opts Options) Stats {
	s := Stats{StatementsBefore: countStmts(p)}
	Optimize(p, st, opts)
	return s
}

// countStmts counts executable statements (everything except the Sequence
// wrapper) across Main, Update, and Delete.
func countStmts(p *ram.Program) int {
	n := 0
	for _, s := range p.Entries() {
		ram.Inspect(s, func(x any) bool {
			_, seq := x.(*ram.Sequence)
			_, stmt := x.(ram.Statement)
			if stmt && !seq {
				n++
			}
			return stmt
		})
	}
	return n
}

// optimizer is the shared peephole walk; exactly one rewrite is enabled per
// pass.
type optimizer struct {
	st                                             *symtab.Table
	foldConstants, existence, fuseFilters, choices bool
	// subst maps the tuple of a full-key search being rewritten to its
	// pattern, which replaces the tuple's elements (existence pass).
	subst map[int][]ram.Expr
}

// run applies the rewrite to every entry point (Main, Update, Delete; an
// absent one stays nil). The receiver is a per-call copy, so concurrent
// Optimize calls share nothing.
func (o optimizer) run(p *ram.Program, st *symtab.Table) {
	o.st = st
	p.Main, p.Update, p.Delete = o.stmt(p.Main), o.stmt(p.Update), o.stmt(p.Delete)
}

func (o *optimizer) stmt(s ram.Statement) ram.Statement {
	switch s := s.(type) {
	case *ram.Sequence:
		for i, st := range s.Stmts {
			s.Stmts[i] = o.stmt(st)
		}
		return s
	case *ram.Loop:
		s.Body = o.stmt(s.Body)
		return s
	case *ram.Exit:
		s.Cond = o.cond(s.Cond)
		return s
	case *ram.Query:
		s.Root = o.op(s.Root)
		return s
	default:
		return s
	}
}

func (o *optimizer) op(op ram.Operation) ram.Operation {
	switch op := op.(type) {
	case *ram.Scan:
		o.foldPattern(op.Pattern)
		o.foldBound(op.Bound)
		full := o.fullKey(op.TupleID, op.Pattern, op.Bound)
		op.Nested = o.op(op.Nested)
		if full {
			delete(o.subst, op.TupleID)
			exists := &ram.ExistenceCheck{Rel: op.Rel, IndexID: op.IndexID, Pattern: op.Pattern}
			return &ram.Filter{Cond: exists, Nested: op.Nested}
		}
		if o.choices {
			if cond, inner, ok := o.choiceBody(op.TupleID, op.Nested); ok {
				return &ram.Choice{
					Rel: op.Rel, IndexID: op.IndexID, Pattern: op.Pattern, Bound: op.Bound,
					Cond: cond, TupleID: op.TupleID, Nested: inner,
				}
			}
		}
		return op
	case *ram.Choice:
		o.foldPattern(op.Pattern)
		o.foldBound(op.Bound)
		full := o.fullKey(op.TupleID, op.Pattern, op.Bound)
		op.Cond = o.cond(op.Cond)
		op.Nested = o.op(op.Nested)
		if full {
			delete(o.subst, op.TupleID)
			exists := &ram.ExistenceCheck{Rel: op.Rel, IndexID: op.IndexID, Pattern: op.Pattern}
			return &ram.Filter{Cond: ram.Conj(exists, op.Cond), Nested: op.Nested}
		}
		return op
	case *ram.Filter:
		op.Cond = o.cond(op.Cond)
		op.Nested = o.op(op.Nested)
		if o.fuseFilters {
			if inner, ok := op.Nested.(*ram.Filter); ok {
				return o.op(&ram.Filter{
					Cond:   &ram.And{L: op.Cond, R: inner.Cond},
					Nested: inner.Nested,
				})
			}
		}
		return op
	case *ram.Project:
		for i, e := range op.Exprs {
			op.Exprs[i] = o.expr(e)
		}
		return op
	case *ram.Aggregate:
		o.foldPattern(op.Pattern)
		if op.Cond != nil {
			op.Cond = o.cond(op.Cond)
		}
		if op.Target != nil {
			op.Target = o.expr(op.Target)
		}
		op.Nested = o.op(op.Nested)
		return op
	default:
		return op
	}
}

// fullKey reports whether the existence pass rewrites the search binding
// tid: its pattern binds every column to an element of an enclosing tuple,
// and it has no range bound. Such a search matches at most one tuple, the
// pattern itself. When it does, the pattern is recorded to replace tid's
// elements in the search's condition and nested operation (expr copies
// each element, so the existence check keeps the pattern's own nodes).
func (o *optimizer) fullKey(tid int, pattern []ram.Expr, b *ram.Bound) bool {
	if !o.existence || b != nil || len(pattern) == 0 {
		return false
	}
	for _, e := range pattern {
		if _, ok := e.(*ram.TupleElement); !ok {
			return false
		}
	}
	if o.subst == nil {
		o.subst = map[int][]ram.Expr{}
	}
	o.subst[tid] = pattern
	return true
}

// choiceBody recognizes the choice-convertible shape under a scan binding
// tid: an optional cascade of filters (which may read tid) ending in an
// operation that never reads tid. Returns the merged filter condition (nil
// when there were no filters) and that final operation.
func (o *optimizer) choiceBody(tid int, nested ram.Operation) (ram.Condition, ram.Operation, bool) {
	var cond ram.Condition
	cur := nested
	for {
		f, ok := cur.(*ram.Filter)
		if !ok {
			break
		}
		cond = ram.Conj(cond, f.Cond)
		cur = f.Nested
	}
	// Only a terminal projection qualifies: deeper scans re-enter the loop
	// structure and their iteration counts depend on every witness.
	proj, ok := cur.(*ram.Project)
	if !ok {
		return nil, nil, false
	}
	for _, e := range proj.Exprs {
		if readsTuple(e, tid) {
			return nil, nil, false
		}
	}
	return cond, proj, true
}

func readsTuple(e ram.Expr, tid int) bool {
	reads := false
	ram.Inspect(e, func(n any) bool {
		if te, ok := n.(*ram.TupleElement); ok && te.TupleID == tid {
			reads = true
		}
		return !reads
	})
	return reads
}

func (o *optimizer) foldPattern(pattern []ram.Expr) {
	for i, e := range pattern {
		if e != nil {
			pattern[i] = o.expr(e)
		}
	}
}

func (o *optimizer) foldBound(b *ram.Bound) {
	if b == nil {
		return
	}
	if b.Lo != nil {
		b.Lo = o.expr(b.Lo)
	}
	if b.Hi != nil {
		b.Hi = o.expr(b.Hi)
	}
}

func (o *optimizer) cond(c ram.Condition) ram.Condition {
	switch c := c.(type) {
	case *ram.And:
		c.L = o.cond(c.L)
		c.R = o.cond(c.R)
		return c
	case *ram.Not:
		c.C = o.cond(c.C)
		return c
	case *ram.ExistenceCheck:
		o.foldPattern(c.Pattern)
		return c
	case *ram.Constraint:
		c.L = o.expr(c.L)
		c.R = o.expr(c.R)
		return c
	default:
		return c
	}
}

// expr folds constant intrinsic applications. Operators with failure cases
// (division, modulo, to_number) are never folded so that runtime errors
// keep their runtime semantics.
func (o *optimizer) expr(e ram.Expr) ram.Expr {
	if te, ok := e.(*ram.TupleElement); ok {
		if p, ok := o.subst[te.TupleID]; ok {
			src := *p[te.Elem].(*ram.TupleElement)
			return &src
		}
		return e
	}
	in, ok := e.(*ram.Intrinsic)
	if !ok {
		return e
	}
	allConst := true
	for i, a := range in.Args {
		in.Args[i] = o.expr(a)
		if _, isConst := in.Args[i].(*ram.Constant); !isConst {
			allConst = false
		}
	}
	if !o.foldConstants || !allConst || !foldable(in.Op) {
		return in
	}
	args := make([]value.Value, len(in.Args))
	for i, a := range in.Args {
		args[i] = a.(*ram.Constant).Val
	}
	return &ram.Constant{Val: rtl.Apply(o.st, in.Op, in.Type, args)}
}

func foldable(op ram.IntrinsicOp) bool {
	switch op {
	case ram.OpDiv, ram.OpMod, ram.OpToNumber:
		return false
	default:
		return true
	}
}
