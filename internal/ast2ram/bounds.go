package ast2ram

import (
	"math"

	"sti/internal/ram"
	"sti/internal/value"
)

// placeBounds gives inner scans the range bound (ram.Bound) of an inequality
// filtered directly under them: a constraint `x op e` (op one of <, <=, >,
// >=, either side) where x is a column the scan binds and leaves unbound in
// its pattern, e is ground before the scan, and the comparison is on number
// or unsigned; or a number constraint linear in x that isolate rewrites to
// that form. The constraint stays in its filter, so a bound only narrows
// the scan; a scan that binds no position is keyed by its bound alone. The
// query's outermost scan gets none: workers partition it.
// Eqrel relations get none either: their searches follow the union-find, not
// a sorted order. It runs just before index selection (indexselect.Assign),
// which keeps a bound only where an order places its column right after the
// equality prefix.
func placeBounds(p *ram.Program) {
	for _, s := range p.Entries() {
		ram.Inspect(s, func(n any) bool {
			if q, ok := n.(*ram.Query); ok {
				boundOp(q.Root, map[int]bool{})
				return false
			}
			return true
		})
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
// mirroring `e op tid.col`, or isolates the column from a number constraint
// linear in it. ok is false for any other shape.
func boundSide(c *ram.Constraint, tid int, outer map[int]bool) (col int, e ram.Expr, op ram.CmpOp, ok bool) {
	if _, ineq := mirror[c.Op]; !ineq {
		return 0, nil, 0, false
	}
	for _, s := range [2]struct {
		l, r ram.Expr
		op   ram.CmpOp
	}{{c.L, c.R, c.Op}, {c.R, c.L, mirror[c.Op]}} {
		if x, isX := s.l.(*ram.TupleElement); isX && x.TupleID == tid && earlyExpr(s.r, outer) {
			return x.Elem, s.r, s.op, true
		}
		if c.Type == value.Number {
			if col, e, op, ok := isolate(s.l, s.r, s.op, tid, outer); ok {
				return col, e, op, true
			}
		}
	}
	return 0, nil, 0, false
}

// isolate reads the number constraint `l op c`, where c is a constant and l
// is `(x - e) / k` or `(e - x) / k` (k a constant > 0, truncating division)
// or the bare difference, with x a column of tuple tid and e ground in outer,
// as a limit `x op' e'` on x with e' ground in outer. (Unsigned differences
// wrap on every operand order, so unsigned constraints are not isolated.)
//
// The quotient meets c exactly when the int32 difference d lies at or below
// (or at or above) a constant T, which without wraparound puts x at or below
// (or at or above) e + A, for A = T when d = x - e and A = -T when d = e - x.
// d wraps only on one sign of e, and then the filter accepts columns past
// that limit: an upper limit holds for e >= 0 and a lower one for e < 0. So
// e' is e + A, saturated at the type's range, on that sign and the type's
// extreme on the other, selected inside e' by e's sign bit:
//
//	upper: max(min(e, MAX-A) + A, bxor(bshr(e, 31), MIN))  (A > 0)
//	lower: min(max(e, MIN-A) + A, bxor(bshr(e, 31), MIN))  (A < 0)
//
// where bxor(bshr(e, 31), MIN) is MAX for e < 0 and MIN otherwise, and the
// saturation is dropped on the side where e + A cannot overflow.
func isolate(l, r ram.Expr, op ram.CmpOp, tid int, outer map[int]bool) (col int, e ram.Expr, limit ram.CmpOp, ok bool) {
	c, isC := r.(*ram.Constant)
	if !isC {
		return 0, nil, 0, false
	}
	k := int64(1)
	if div, isDiv := l.(*ram.Intrinsic); isDiv && div.Op == ram.OpDiv && div.Type == value.Number {
		kc, isK := div.Args[1].(*ram.Constant)
		if !isK || value.AsInt(kc.Val) <= 0 {
			return 0, nil, 0, false
		}
		l, k = div.Args[0], int64(value.AsInt(kc.Val))
	}
	sub, isSub := l.(*ram.Intrinsic)
	if !isSub || sub.Op != ram.OpSub || sub.Type != value.Number {
		return 0, nil, 0, false
	}
	// q op c on the quotient q = trunc(d/k) as q <= m or q >= m, then on d.
	m, atMost := int64(value.AsInt(c.Val)), op == ram.CmpLT || op == ram.CmpLE
	switch op {
	case ram.CmpLT:
		m--
	case ram.CmpGT:
		m++
	}
	var t int64
	switch {
	case atMost && m >= 0:
		t = m*k + k - 1
	case atMost:
		t = m * k
	case m > 0:
		t = m * k
	default:
		t = m*k - k + 1
	}
	a, upper := t, atMost
	if x, isX := sub.Args[0].(*ram.TupleElement); isX && x.TupleID == tid && earlyExpr(sub.Args[1], outer) {
		col, e = x.Elem, sub.Args[1]
	} else if x, isX := sub.Args[1].(*ram.TupleElement); isX && x.TupleID == tid && earlyExpr(sub.Args[0], outer) {
		col, e, a, upper = x.Elem, sub.Args[0], -t, !atMost
	} else {
		return 0, nil, 0, false
	}
	if t < math.MinInt32 || t > math.MaxInt32 || a < math.MinInt32 || a > math.MaxInt32 {
		return 0, nil, 0, false
	}
	num := func(v int64) ram.Expr { return &ram.Constant{Val: value.FromInt(int32(v))} }
	fn := func(op ram.IntrinsicOp, args ...ram.Expr) ram.Expr {
		return &ram.Intrinsic{Op: op, Type: value.Number, Args: args}
	}
	v := e
	switch {
	case upper && a > 0:
		v = fn(ram.OpMin, e, num(math.MaxInt32-a))
	case !upper && a < 0:
		v = fn(ram.OpMax, e, num(math.MinInt32-a))
	}
	if a != 0 {
		v = fn(ram.OpAdd, v, num(a))
	}
	extreme := fn(ram.OpBXor, fn(ram.OpBShr, e, num(31)), num(math.MinInt32))
	if upper {
		return col, fn(ram.OpMax, v, extreme), ram.CmpLE, true
	}
	return col, fn(ram.OpMin, v, extreme), ram.CmpGE, true
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
