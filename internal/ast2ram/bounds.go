package ast2ram

import (
	"sti/internal/ram"
	"sti/internal/value"
)

// placeBounds gives inner scans the range bound (ram.Bound) of an inequality
// filtered directly under them: a constraint `x op e` (op one of <, <=, >,
// >=, either side) where x is a column the scan binds and leaves unbound in
// its pattern, e is ground before the scan, and the comparison is on number
// or unsigned. The constraint stays in its filter, so a bound only narrows
// the scan; a scan that binds no position is keyed by its bound alone. The
// query's outermost scan gets none: workers partition it.
// Eqrel relations get none either: their searches follow the union-find, not
// a sorted order. It runs just before index selection (indexselect.Assign),
// which keeps a bound only where an order places its column right after the
// equality prefix.
func placeBounds(p *ram.Program) {
	var stmt func(s ram.Statement)
	stmt = func(s ram.Statement) {
		switch s := s.(type) {
		case *ram.Sequence:
			for _, st := range s.Stmts {
				stmt(st)
			}
		case *ram.Loop:
			stmt(s.Body)
		case *ram.Query:
			boundOp(s.Root, map[int]bool{})
		case *ram.LogTimer:
			stmt(s.Stmt)
		}
	}
	for _, s := range []ram.Statement{p.Main, p.Update, p.Delete} {
		stmt(s)
	}
}

// boundOp places bounds in the operation tree o, whose enclosing operations
// bind the tuple slots in outer. An operation tree is a chain, so outer only
// grows on the way down.
func boundOp(o ram.Operation, outer map[int]bool) {
	switch o := o.(type) {
	case *ram.Scan:
		o.Bound = findBound(o.Rel, o.Pattern, o.TupleID, o.Nested, outer)
		outer[o.TupleID] = true
		boundOp(o.Nested, outer)
	case *ram.Aggregate:
		outer[o.TupleID] = true
		boundOp(o.Nested, outer)
	case *ram.Filter:
		boundOp(o.Nested, outer)
	}
}

// findBound returns the bound the filters directly under a scan of rel
// binding tid give it, or nil. The first qualifying constraint picks the
// column; the first lower and first upper limit on that column form the
// bound.
func findBound(rel *ram.Relation, pattern []ram.Expr, tid int, nested ram.Operation, outer map[int]bool) *ram.Bound {
	if len(outer) == 0 || rel.Rep == ram.RepEqRel {
		return nil
	}
	var b *ram.Bound
	var visit func(c ram.Condition)
	visit = func(c ram.Condition) {
		switch c := c.(type) {
		case *ram.And:
			visit(c.L)
			visit(c.R)
		case *ram.Constraint:
			if c.Type != value.Number && c.Type != value.Unsigned {
				return
			}
			col, e, op, ok := boundSide(c, tid, outer)
			if !ok || pattern[col] != nil || b != nil && (b.Col != col || b.Type != c.Type) {
				return
			}
			if b == nil {
				b = &ram.Bound{Col: col, Type: c.Type}
			}
			switch op {
			case ram.CmpGT, ram.CmpGE:
				if b.Lo == nil {
					b.Lo, b.LoStrict = e, op == ram.CmpGT
				}
			case ram.CmpLT, ram.CmpLE:
				if b.Hi == nil {
					b.Hi, b.HiStrict = e, op == ram.CmpLT
				}
			}
		}
	}
	for f, ok := nested.(*ram.Filter); ok; f, ok = f.Nested.(*ram.Filter) {
		visit(f.Cond)
	}
	return b
}

// mirror is the comparison with its operands swapped, for the inequalities.
var mirror = map[ram.CmpOp]ram.CmpOp{ram.CmpLT: ram.CmpGT, ram.CmpLE: ram.CmpGE, ram.CmpGT: ram.CmpLT, ram.CmpGE: ram.CmpLE}

// boundSide reads constraint c as `tid.col op e` with e ground in outer,
// mirroring `e op tid.col`. ok is false for any other shape.
func boundSide(c *ram.Constraint, tid int, outer map[int]bool) (col int, e ram.Expr, op ram.CmpOp, ok bool) {
	if _, ineq := mirror[c.Op]; !ineq {
		return 0, nil, 0, false
	}
	if x, isX := c.L.(*ram.TupleElement); isX && x.TupleID == tid && earlyExpr(c.R, outer) {
		return x.Elem, c.R, c.Op, true
	}
	if x, isX := c.R.(*ram.TupleElement); isX && x.TupleID == tid && earlyExpr(c.L, outer) {
		return x.Elem, c.L, mirror[c.Op], true
	}
	return 0, nil, 0, false
}

// earlyExpr reports whether e can be evaluated once at scan start: it reads
// only enclosing tuples and constants, through functors that cannot fail.
// (A failing functor such as division must keep failing only where the
// filter evaluates it.)
func earlyExpr(e ram.Expr, outer map[int]bool) bool {
	switch e := e.(type) {
	case *ram.Constant:
		return true
	case *ram.TupleElement:
		return outer[e.TupleID]
	case *ram.Intrinsic:
		switch e.Op {
		case ram.OpAdd, ram.OpSub, ram.OpMul, ram.OpBAnd, ram.OpBOr, ram.OpBXor,
			ram.OpBShl, ram.OpBShr, ram.OpNeg, ram.OpBNot, ram.OpMin, ram.OpMax:
		default:
			return false
		}
		for _, a := range e.Args {
			if !earlyExpr(a, outer) {
				return false
			}
		}
		return true
	}
	return false
}
