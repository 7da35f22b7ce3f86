package compile

import (
	"fmt"
	"time"

	"sti/internal/brie"
	"sti/internal/eqrel"
	"sti/internal/ram"
	"sti/internal/relation"
	"sti/internal/rtl"
	"sti/internal/tuple"
	"sti/internal/value"
)

// compiler lowers RAM into closures. Tuple reordering is always static
// (encoded coordinates), matching the synthesized code the paper compares
// against.
type compiler struct {
	m      *Machine
	coords map[int32]tuple.Order
	// inQuery is set while a query is compiled; fingers collects the arity
	// of each of its full-key B-tree existence sites' finger slots.
	inQuery bool
	fingers []int32
}

// fingerSlot returns the rt finger slot of a full-key existence check on an
// arity-wide B-tree, or -1 outside a query (an Exit condition runs without
// an rt) and for a partial or empty key.
func (c *compiler) fingerSlot(prefix, arity int) int32 {
	if !c.inQuery || prefix != arity || arity == 0 {
		return -1
	}
	c.fingers = append(c.fingers, int32(arity))
	return int32(len(c.fingers) - 1)
}

func (c *compiler) relation(r *ram.Relation) *relation.Relation {
	return c.m.rels[r.ID]
}

func (c *compiler) compileStmt(s ram.Statement) stmtFn {
	switch s := s.(type) {
	case *ram.Sequence:
		stmts := make([]stmtFn, len(s.Stmts))
		for i, st := range s.Stmts {
			stmts[i] = c.compileStmt(st)
		}
		return func(st *state) {
			for _, f := range stmts {
				f(st)
				if st.exit {
					return
				}
			}
		}
	case *ram.Loop:
		body := c.compileStmt(s.Body)
		return func(st *state) {
			for {
				body(st)
				if st.exit {
					st.exit = false
					return
				}
			}
		}
	case *ram.Exit:
		cond := c.compileCond(s.Cond)
		return func(st *state) {
			if cond(nil) {
				st.exit = true
			}
		}
	case *ram.Query:
		c.coords = map[int32]tuple.Order{}
		widths := make([]int32, s.NumTuples)
		measureWidths(s.Root, widths)
		c.inQuery, c.fingers = true, nil
		root := c.compileOp(s.Root)
		c.inQuery = false
		fingers := c.fingers
		id := s.RuleID
		c.m.ruleLabels[id] = s.Label
		times := c.m.ruleTimes
		return func(st *state) {
			start := time.Now()
			root(newRT(widths, fingers))
			times[id] += time.Since(start)
		}
	case *ram.Clear:
		rel := c.relation(s.Rel)
		return func(*state) { rel.Clear() }
	case *ram.Swap:
		a, b := c.relation(s.A), c.relation(s.B)
		return func(*state) { a.SwapContents(b) }
	case *ram.Merge:
		dst, src := c.relation(s.Dst), c.relation(s.Src)
		return func(*state) {
			it := src.Scan()
			for {
				t, ok := it.Next()
				if !ok {
					return
				}
				dst.Insert(t)
			}
		}
	case *ram.IO:
		rel := c.relation(s.Rel)
		decl := s.Rel
		switch s.Kind {
		case ram.IOLoad:
			return func(st *state) {
				err := st.io.Load(decl, func(t tuple.Tuple) error {
					rel.Insert(t)
					return nil
				})
				if err != nil {
					rtl.Fail("loading %s: %v", rel.Name, err)
				}
			}
		case ram.IOStore:
			return func(st *state) {
				if err := st.io.Store(decl, rel.Scan()); err != nil {
					rtl.Fail("storing %s: %v", rel.Name, err)
				}
			}
		default:
			return func(st *state) {
				if err := st.io.PrintSize(decl, rel.Size()); err != nil {
					rtl.Fail("printsize %s: %v", rel.Name, err)
				}
			}
		}
	default:
		panic(fmt.Sprintf("compile: unknown RAM statement %T", s))
	}
}

// measureWidths records each tuple slot's width.
func measureWidths(o ram.Operation, widths []int32) {
	ram.Inspect(o, func(n any) bool {
		switch n := n.(type) {
		case *ram.Scan:
			widths[n.TupleID] = int32(n.Rel.Arity)
		case *ram.Choice:
			widths[n.TupleID] = int32(n.Rel.Arity)
		case *ram.Aggregate:
			widths[n.TupleID] = max(int32(n.Rel.Arity), 1)
		}
		return true
	})
}

func (c *compiler) compileOp(o ram.Operation) opFn {
	switch o := o.(type) {
	case *ram.Scan:
		rel := c.relation(o.Rel)
		idx := rel.SearchIndex(o.IndexID)
		tid := int32(o.TupleID)
		pat := c.compilePattern(o.Pattern, idx.Order())
		bnd := c.compileBound(o.Bound)
		c.bindCoords(tid, idx.Order())
		body := c.compileOp(o.Nested)
		switch rel.Rep() {
		case relation.BTree:
			return buildScanRangeBT(relation.Impl(idx), tid, pat, bnd, body)
		case relation.EqRel:
			er := relation.Impl(idx).(*eqrel.Rel)
			if len(pat) >= 2 {
				p0, p1 := pat[0], pat[1]
				return func(r *rt) {
					a, b := p0(r), p1(r)
					if er.Contains(a, b) {
						slot := r.tuples[tid]
						slot[0], slot[1] = a, b
						body(r)
					}
				}
			}
			return func(r *rt) {
				var it *eqrel.Iter
				if len(pat) == 1 {
					it = er.PrefixFirst(pat[0](r))
				} else {
					it = er.Iter()
				}
				slot := r.tuples[tid]
				for {
					t, ok := it.Next()
					if !ok {
						return
					}
					copy(slot, t)
					body(r)
				}
			}
		default: // brie
			tr := relation.Impl(idx).(*brie.Trie)
			k := len(pat)
			return func(r *rt) {
				var p [relation.MaxArity]value.Value
				for i, pf := range pat {
					p[i] = pf(r)
				}
				it := tr.Prefix(p[:k])
				slot := r.tuples[tid]
				for {
					t, ok := it.Next()
					if !ok {
						return
					}
					copy(slot, t)
					body(r)
				}
			}
		}

	case *ram.Choice:
		// The generic adapter-backed form serves every representation.
		return c.compileChoice(o)

	case *ram.Filter:
		cond := c.compileCond(o.Cond)
		body := c.compileOp(o.Nested)
		return func(r *rt) {
			if cond(r) {
				body(r)
			}
		}

	case *ram.Project:
		rel := c.relation(o.Rel)
		exprs := make([]exprFn, len(o.Exprs))
		for i, e := range o.Exprs {
			exprs[i] = c.compileExpr(e)
		}
		switch rel.Rep() {
		case relation.BTree:
			impls := make([]any, rel.NumIndexes())
			orders := make([]tuple.Order, rel.NumIndexes())
			for i := 0; i < rel.NumIndexes(); i++ {
				impls[i] = relation.Impl(rel.Index(i))
				orders[i] = rel.Index(i).Order()
			}
			return buildInsertBT(impls, orders, int32(rel.Arity()), exprs)
		case relation.EqRel:
			er := relation.Impl(rel.Primary()).(*eqrel.Rel)
			e0, e1 := exprs[0], exprs[1]
			return func(r *rt) {
				er.Insert(e0(r), e1(r))
			}
		default:
			arity := int32(rel.Arity())
			impls := make([]*brie.Trie, rel.NumIndexes())
			orders := make([]tuple.Order, rel.NumIndexes())
			for i := 0; i < rel.NumIndexes(); i++ {
				impls[i] = relation.Impl(rel.Index(i)).(*brie.Trie)
				orders[i] = rel.Index(i).Order()
			}
			return func(r *rt) {
				var src, enc [relation.MaxArity]value.Value
				for i, e := range exprs {
					src[i] = e(r)
				}
				for i, tr := range impls {
					orders[i].Encode(enc[:arity], src[:arity])
					if !tr.Insert(enc[:arity]) {
						return
					}
				}
			}
		}

	case *ram.Aggregate:
		rel := c.relation(o.Rel)
		idx := rel.SearchIndex(o.IndexID)
		tid := int32(o.TupleID)
		pat := c.compilePattern(o.Pattern, idx.Order())
		c.bindCoords(tid, idx.Order())
		var cond condFn
		if o.Cond != nil {
			cond = c.compileCond(o.Cond)
		}
		var target exprFn
		if o.Target != nil {
			target = c.compileExpr(o.Target)
		}
		delete(c.coords, tid)
		body := c.compileOp(o.Nested)
		if rel.Rep() == relation.BTree {
			return buildAggregateBT(relation.Impl(idx), o.Kind, o.Type, tid, pat, cond, target, body)
		}
		// Adapter-backed fallback for eqrel/brie aggregates.
		arity := int32(rel.Arity())
		k := len(pat)
		kind, typ := o.Kind, o.Type
		return func(r *rt) {
			r.tuples[tid] = r.base[tid]
			var p [relation.MaxArity]value.Value
			for i, pf := range pat {
				p[i] = pf(r)
			}
			it := idx.PrefixScan(p[:arity], k)
			slot := r.tuples[tid]
			var acc rtl.AggAcc
			acc.Init(kind, typ)
			for {
				t, ok := it.Next()
				if !ok {
					break
				}
				copy(slot, t)
				if cond != nil && !cond(r) {
					continue
				}
				var v value.Value
				if target != nil {
					v = target(r)
				}
				acc.Step(v)
			}
			if res, ok := acc.Finish(); ok {
				r.bindResult(tid, res)
				body(r)
			}
		}

	default:
		panic(fmt.Sprintf("compile: unknown RAM operation %T", o))
	}
}

// compileChoice compiles a choice over the relation's dynamic adapter: an
// unkeyed choice opens a full scan, a keyed one its prefix or range.
func (c *compiler) compileChoice(o *ram.Choice) opFn {
	rel := c.relation(o.Rel)
	idx := rel.SearchIndex(o.IndexID)
	tid := int32(o.TupleID)
	pat := c.compilePattern(o.Pattern, idx.Order())
	bnd := c.compileBound(o.Bound)
	c.bindCoords(tid, idx.Order())
	cond := c.compileChoiceCond(o.Cond)
	body := c.compileOp(o.Nested)
	arity := int32(rel.Arity())
	k := len(pat)
	return func(r *rt) {
		var it relation.Iterator
		if k == 0 && bnd == nil {
			it = idx.Scan()
		} else {
			var p [relation.MaxArity]value.Value
			for i, pf := range pat {
				p[i] = pf(r)
			}
			if bnd == nil {
				it = idx.PrefixScan(p[:arity], k)
			} else {
				lo, hi, ok := bnd(r)
				if !ok {
					return
				}
				it = relation.RangeScan(idx, p[:arity], k, lo, hi)
			}
		}
		for {
			t, ok := it.Next()
			if !ok {
				return
			}
			copy(r.tuples[tid], t)
			if cond(r) {
				body(r)
				return
			}
		}
	}
}

// compileChoiceCond compiles a choice condition, treating nil as true.
func (c *compiler) compileChoiceCond(cond ram.Condition) condFn {
	if cond == nil {
		return func(*rt) bool { return true }
	}
	return c.compileCond(cond)
}

func (c *compiler) bindCoords(tid int32, order tuple.Order) {
	if !order.IsIdentity() {
		c.coords[tid] = order
	}
}

// compileBound lowers a search's range bound (nil: none) to the closure
// that maps its limits into storage order at scan start. Only B-tree scans
// use it; brie and eqrel ignore it, as the filter it came from stays.
func (c *compiler) compileBound(b *ram.Bound) boundFn {
	if b == nil {
		return nil
	}
	typed := relation.Bound{Type: b.Type, LoStrict: b.LoStrict, HiStrict: b.HiStrict}
	var lo, hi exprFn
	if b.Lo != nil {
		lo, typed.HasLo = c.compileExpr(b.Lo), true
	}
	if b.Hi != nil {
		hi, typed.HasHi = c.compileExpr(b.Hi), true
	}
	return func(r *rt) (value32, value32, bool) {
		t := typed
		if lo != nil {
			t.Lo = lo(r)
		}
		if hi != nil {
			t.Hi = hi(r)
		}
		return t.Keys()
	}
}

// compilePattern lowers a source-coordinate pattern into encoded-prefix
// expression closures.
func (c *compiler) compilePattern(pattern []ram.Expr, order tuple.Order) []exprFn {
	var out []exprFn
	for i := 0; i < len(order); i++ {
		src := pattern[order[i]]
		if src == nil {
			break
		}
		out = append(out, c.compileExpr(src))
	}
	return out
}

func (c *compiler) compileCond(cond ram.Condition) condFn {
	switch cond := cond.(type) {
	case *ram.And:
		l, r := c.compileCond(cond.L), c.compileCond(cond.R)
		return func(rt *rt) bool { return l(rt) && r(rt) }
	case *ram.Not:
		inner := c.compileCond(cond.C)
		return func(rt *rt) bool { return !inner(rt) }
	case *ram.EmptinessCheck:
		rel := c.relation(cond.Rel)
		return func(*rt) bool { return rel.Empty() }
	case *ram.ExistenceCheck:
		rel := c.relation(cond.Rel)
		idx := rel.Index(cond.IndexID)
		pat := c.compilePattern(cond.Pattern, idx.Order())
		switch rel.Rep() {
		case relation.BTree:
			return buildExistsBT(relation.Impl(idx), int32(rel.Arity()), pat, c.fingerSlot(len(pat), rel.Arity()))
		case relation.EqRel:
			er := relation.Impl(idx).(*eqrel.Rel)
			switch len(pat) {
			case 0:
				return func(*rt) bool { return er.Size() > 0 }
			case 1:
				p0 := pat[0]
				return func(r *rt) bool { return er.Class(p0(r)) != nil }
			default:
				p0, p1 := pat[0], pat[1]
				return func(r *rt) bool { return er.Contains(p0(r), p1(r)) }
			}
		default:
			tr := relation.Impl(idx).(*brie.Trie)
			arity := rel.Arity()
			k := len(pat)
			if k == arity {
				return func(r *rt) bool {
					var p [relation.MaxArity]value.Value
					for i, pf := range pat {
						p[i] = pf(r)
					}
					return tr.Contains(p[:arity])
				}
			}
			return func(r *rt) bool {
				var p [relation.MaxArity]value.Value
				for i, pf := range pat {
					p[i] = pf(r)
				}
				return tr.HasPrefix(p[:k])
			}
		}
	case *ram.Constraint:
		l, r := c.compileExpr(cond.L), c.compileExpr(cond.R)
		return compileCompare(cond.Op, cond.Type, l, r)
	default:
		panic(fmt.Sprintf("compile: unknown RAM condition %T", cond))
	}
}

// compileCompare monomorphizes a comparison per operator and type.
func compileCompare(op ram.CmpOp, typ value.Type, l, r exprFn) condFn {
	switch op {
	case ram.CmpEQ:
		return func(rt *rt) bool { return l(rt) == r(rt) }
	case ram.CmpNE:
		return func(rt *rt) bool { return l(rt) != r(rt) }
	}
	if typ == value.Number {
		switch op {
		case ram.CmpLT:
			return func(rt *rt) bool { return int32(l(rt)) < int32(r(rt)) }
		case ram.CmpLE:
			return func(rt *rt) bool { return int32(l(rt)) <= int32(r(rt)) }
		case ram.CmpGT:
			return func(rt *rt) bool { return int32(l(rt)) > int32(r(rt)) }
		default:
			return func(rt *rt) bool { return int32(l(rt)) >= int32(r(rt)) }
		}
	}
	return func(rt *rt) bool { return rtl.Compare(op, typ, l(rt), r(rt)) }
}

func (c *compiler) compileExpr(e ram.Expr) exprFn {
	switch e := e.(type) {
	case *ram.Constant:
		v := e.Val
		return func(*rt) value.Value { return v }
	case *ram.TupleElement:
		tid := int32(e.TupleID)
		elem := int32(e.Elem)
		if order := c.coords[tid]; order != nil {
			elem = int32(order.Inverse()[int(elem)])
		}
		return func(r *rt) value.Value { return r.tuples[tid][elem] }
	case *ram.Intrinsic:
		return c.compileIntrinsic(e)
	default:
		panic(fmt.Sprintf("compile: unknown RAM expression %T", e))
	}
}

// compileIntrinsic monomorphizes functors: the hot signed-arithmetic
// operators get dedicated closures, the other binary operators call
// rtl.Arith, and the rest route through the shared runtime's rtl.Apply with
// the operator pre-bound. Of the functors that take two arguments only cat
// is not arithmetic.
func (c *compiler) compileIntrinsic(e *ram.Intrinsic) exprFn {
	args := make([]exprFn, len(e.Args))
	for i, a := range e.Args {
		args[i] = c.compileExpr(a)
	}
	st := c.m.st
	op, typ := e.Op, e.Type
	if len(args) != 2 || op == ram.OpCat {
		return func(r *rt) value.Value {
			var buf [4]value.Value
			vals := buf[:0]
			for _, a := range args {
				vals = append(vals, a(r))
			}
			return rtl.Apply(st, op, typ, vals)
		}
	}
	l, r2 := args[0], args[1]
	if typ == value.Number {
		switch op {
		case ram.OpAdd:
			return func(r *rt) value.Value {
				return value.FromInt(value.AsInt(l(r)) + value.AsInt(r2(r)))
			}
		case ram.OpSub:
			return func(r *rt) value.Value {
				return value.FromInt(value.AsInt(l(r)) - value.AsInt(r2(r)))
			}
		case ram.OpMul:
			return func(r *rt) value.Value {
				return value.FromInt(value.AsInt(l(r)) * value.AsInt(r2(r)))
			}
		case ram.OpBAnd:
			return func(r *rt) value.Value {
				return value.FromInt(value.AsInt(l(r)) & value.AsInt(r2(r)))
			}
		case ram.OpBOr:
			return func(r *rt) value.Value {
				return value.FromInt(value.AsInt(l(r)) | value.AsInt(r2(r)))
			}
		}
	}
	return func(r *rt) value.Value { return rtl.Arith(op, typ, l(r), r2(r)) }
}
