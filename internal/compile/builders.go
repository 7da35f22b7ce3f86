package compile

import (
	"sti/internal/btree"
	"sti/internal/ram"
	"sti/internal/relation"
	"sti/internal/rtl"
	"sti/internal/tuple"
	"sti/internal/value"
)

// This file holds the generic typed builders: each returns a closure that
// captures the concrete B-tree instance(s), conversion glue, and
// sub-closures, so execution performs no dispatch at all. The generated
// dispatch_gen.go instantiates them per arity. The glue is the interpreter's
// (relation.KeyFunc), so both backends run the same allocation-free tuple
// path and Fig 15 compares dispatch alone.

// rangeOf evaluates the bound prefix of a search, and its range bound when
// bnd is not nil, and returns its iterator: the whole tree for an unkeyed
// search. ok is false when the range bound admits no tuple.
func rangeOf[K btree.Key[K]](r *rt, tree *btree.Tree[K], toKey relation.KeyFunc[K], pat []exprFn, bnd boundFn) (it btree.Iter[K], ok bool) {
	if len(pat) == 0 && bnd == nil {
		return tree.Iter(), true
	}
	var prefix [relation.MaxArity]value.Value
	for i, p := range pat {
		prefix[i] = p(r)
	}
	lo, hi := relation.PrefixBounds(prefix[:len(pat)])
	if bnd != nil {
		if lo[len(pat)], hi[len(pat)], ok = bnd(r); !ok {
			return it, false
		}
	}
	return tree.Range(toKey(lo), toKey(hi)), true
}

func makeScanRangeBT[K btree.Key[K]](tree *btree.Tree[K], toKey relation.KeyFunc[K], fromKey func(K, tuple.Tuple), tid int32, pat []exprFn, bnd boundFn, body opFn) opFn {
	return func(r *rt) {
		it, ok := rangeOf(r, tree, toKey, pat, bnd)
		if !ok {
			return
		}
		slot := r.tuples[tid]
		for {
			k, ok := it.Next()
			if !ok {
				return
			}
			fromKey(k, slot)
			body(r)
		}
	}
}

func makeInsertBT[K btree.Key[K]](impls []any, orders []tuple.Order, toKey relation.KeyFunc[K], arity int32, exprs []exprFn) opFn {
	trees := make([]*btree.Tree[K], len(impls))
	for i, impl := range impls {
		trees[i] = impl.(*btree.Tree[K])
	}
	return func(r *rt) {
		var src, enc [relation.MaxArity]value.Value
		for i, e := range exprs {
			src[i] = e(r)
		}
		// Every index holds the same tuples: a duplicate in the primary
		// index is one in all of them.
		for i, tree := range trees {
			orders[i].Encode(enc[:arity], src[:arity])
			if !tree.Insert(toKey(enc)) {
				return
			}
		}
	}
}

// makeExistsBT's full-key check starts from the finger in r's slot (-1 for
// none).
func makeExistsBT[K btree.Key[K]](tree *btree.Tree[K], toKey relation.KeyFunc[K], arity int32, pat []exprFn, slot int32) condFn {
	switch {
	case len(pat) == int(arity):
		return func(r *rt) bool {
			var key [relation.MaxArity]value.Value
			for i, p := range pat {
				key[i] = p(r)
			}
			h, _ := r.finger(slot).(*btree.Hint[K])
			return tree.ContainsHint(toKey(key), h)
		}
	case len(pat) == 0:
		return func(*rt) bool { return tree.Size() > 0 }
	default:
		return func(r *rt) bool {
			it, _ := rangeOf(r, tree, toKey, pat, nil)
			_, ok := it.Next()
			return ok
		}
	}
}

func makeAggregateBT[K btree.Key[K]](tree *btree.Tree[K], toKey relation.KeyFunc[K], fromKey func(K, tuple.Tuple), kind ram.AggKind, typ value.Type, tid int32, pat []exprFn, cond condFn, target exprFn, body opFn) opFn {
	return func(r *rt) {
		r.tuples[tid] = r.base[tid]
		it, _ := rangeOf(r, tree, toKey, pat, nil)
		slot := r.tuples[tid]
		var acc rtl.AggAcc
		acc.Init(kind, typ)
		for {
			k, ok := it.Next()
			if !ok {
				break
			}
			fromKey(k, slot)
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
}
