package interp

import (
	"sti/internal/ram"
	"sti/internal/ram/verify"
	"sti/internal/rtl"
	"sti/internal/tuple"
	"sti/internal/value"
)

// Condition fusion (the paper's §5.2 hand-crafted super-instruction,
// generalized): a condition that probes no relation — And/Not/Constraint
// over constants, tuple elements and intrinsics — becomes one closure over
// the context's bound tuples at tree-generation time. Operators, types and
// the §4.2 encoded coordinates are resolved here, once; the closures capture
// only immutable values, so an evaluation is one dispatch, allocates nothing,
// and may run on any worker's context.

type (
	fusedCond = func([]tuple.Tuple) bool
	fusedExpr = func([]tuple.Tuple) value.Value
)

// arg is one operand of a fused node. Constants and tuple elements are read
// in place (the §4.4 folding of leaf children into their parent); only a
// nested intrinsic costs a call.
type arg struct {
	fn           fusedExpr
	tid, elem    int32
	val          value.Value
	isFn, isElem bool
}

// get is written to fit the compiler's inlining budget (two flag tests, not
// nil/sign comparisons), so a leaf operand costs its parent closure no call.
func (a arg) get(ts []tuple.Tuple) value.Value {
	if a.isFn {
		return a.fn(ts)
	}
	if a.isElem {
		return ts[a.tid][a.elem]
	}
	return a.val
}

// pure reports whether c can be fused: no emptiness or existence check.
func pure(c ram.Condition) bool {
	switch c := c.(type) {
	case *ram.And:
		return pure(c.L) && pure(c.R)
	case *ram.Not:
		return pure(c.C)
	case *ram.Constraint:
		return true
	}
	return false
}

// conjuncts appends the leaves of c's top-level conjunction, left to right.
func conjuncts(c ram.Condition, out []ram.Condition) []ram.Condition {
	if and, ok := c.(*ram.And); ok {
		return conjuncts(and.R, conjuncts(and.L, out))
	}
	return append(out, c)
}

// fuse builds the closure of the conjunction of cs (each pure): one flat
// loop, short-circuiting left to right like the opAnd chain it replaces.
func (g *generator) fuse(cs ...ram.Condition) fusedCond {
	var fs []fusedCond
	for _, c := range cs {
		// In ramverify debug mode, check element reads against the tuples
		// bound so far: an out-of-bounds read in a closure would otherwise
		// surface as an index panic (or a wrong answer) mid-fixpoint.
		if verify.Debugging() {
			arities := make(map[int]int, len(g.widths))
			for tid, w := range g.widths {
				arities[int(tid)] = int(w)
			}
			if diags := verify.FusedCondition(c, arities); len(diags) > 0 {
				panic(&verify.Error{Stage: "interp.fuse", Diags: diags})
			}
		}
		for _, leaf := range conjuncts(c, nil) {
			fs = append(fs, g.fuseLeaf(leaf))
		}
	}
	if len(fs) == 1 {
		return fs[0]
	}
	return func(ts []tuple.Tuple) bool {
		for _, f := range fs {
			if !f(ts) {
				return false
			}
		}
		return true
	}
}

// fuseLeaf builds a negation or a comparison, monomorphic for the signed
// orderings and pre-bound to the shared runtime for the other types.
func (g *generator) fuseLeaf(c ram.Condition) fusedCond {
	if not, ok := c.(*ram.Not); ok {
		inner := g.fuse(not.C)
		return func(ts []tuple.Tuple) bool { return !inner(ts) }
	}
	k := c.(*ram.Constraint)
	op, typ, l, r := k.Op, k.Type, g.fuseArg(k.L), g.fuseArg(k.R)
	switch {
	case op == ram.CmpEQ:
		return func(ts []tuple.Tuple) bool { return l.get(ts) == r.get(ts) }
	case op == ram.CmpNE:
		return func(ts []tuple.Tuple) bool { return l.get(ts) != r.get(ts) }
	case typ != value.Number:
		return func(ts []tuple.Tuple) bool { return rtl.Compare(op, typ, l.get(ts), r.get(ts)) }
	case op == ram.CmpLT:
		return func(ts []tuple.Tuple) bool { return int32(l.get(ts)) < int32(r.get(ts)) }
	case op == ram.CmpLE:
		return func(ts []tuple.Tuple) bool { return int32(l.get(ts)) <= int32(r.get(ts)) }
	case op == ram.CmpGT:
		return func(ts []tuple.Tuple) bool { return int32(l.get(ts)) > int32(r.get(ts)) }
	}
	return func(ts []tuple.Tuple) bool { return int32(l.get(ts)) >= int32(r.get(ts)) }
}

func (g *generator) fuseArg(e ram.Expr) arg {
	switch e := e.(type) {
	case *ram.Constant:
		return arg{val: e.Val}
	case *ram.TupleElement:
		// Same §4.2 rewrite as genExpr: read the encoded position.
		elem := e.Elem
		if order := g.coords[int32(e.TupleID)]; order != nil {
			elem = order.Inverse()[elem]
		}
		return arg{isElem: true, tid: int32(e.TupleID), elem: int32(elem)}
	}
	return arg{isFn: true, fn: g.fuseIntrinsic(e.(*ram.Intrinsic))}
}

// fuseIntrinsic gives the binary word operators their own bodies — wrap-around
// arithmetic and bit operations are the same bits for number and unsigned,
// and a known non-zero divisor needs no per-evaluation zero check — and
// pre-binds every other functor to rtl.Apply.
func (g *generator) fuseIntrinsic(e *ram.Intrinsic) fusedExpr {
	args := make([]arg, len(e.Args))
	for i, a := range e.Args {
		args[i] = g.fuseArg(a)
	}
	op, typ, st := e.Op, e.Type, g.eng.st
	if len(args) == 2 && typ != value.Float {
		a, b := args[0], args[1]
		d := int32(b.val)
		constDivisor := typ == value.Number && !b.isFn && !b.isElem && d != 0
		switch {
		case op == ram.OpAdd:
			return func(ts []tuple.Tuple) value.Value { return a.get(ts) + b.get(ts) }
		case op == ram.OpSub:
			return func(ts []tuple.Tuple) value.Value { return a.get(ts) - b.get(ts) }
		case op == ram.OpMul:
			return func(ts []tuple.Tuple) value.Value { return a.get(ts) * b.get(ts) }
		case op == ram.OpBAnd:
			return func(ts []tuple.Tuple) value.Value { return a.get(ts) & b.get(ts) }
		case op == ram.OpBOr:
			return func(ts []tuple.Tuple) value.Value { return a.get(ts) | b.get(ts) }
		case op == ram.OpBXor:
			return func(ts []tuple.Tuple) value.Value { return a.get(ts) ^ b.get(ts) }
		case op == ram.OpDiv && constDivisor:
			return func(ts []tuple.Tuple) value.Value { return value.FromInt(int32(a.get(ts)) / d) }
		case op == ram.OpMod && constDivisor:
			return func(ts []tuple.Tuple) value.Value { return value.FromInt(int32(a.get(ts)) % d) }
		}
	}
	return func(ts []tuple.Tuple) value.Value {
		var buf [4]value.Value
		vals := buf[:0]
		for i := range args {
			vals = append(vals, args[i].get(ts))
		}
		return rtl.Apply(st, op, typ, vals)
	}
}
