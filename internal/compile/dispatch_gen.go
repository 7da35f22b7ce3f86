// Code generated by cmd/genspecialized; DO NOT EDIT.

package compile

import (
	"fmt"

	"sti/internal/btree"
	"sti/internal/ram"
	"sti/internal/relation"
	"sti/internal/tuple"
	"sti/internal/value"
)

func badImpl(impl any) string {
	return fmt.Sprintf("compile: unsupported B-tree instance %T", impl)
}

func buildScanRangeBT(impl any, tid int32, pat []exprFn, bnd boundFn, body opFn) opFn {
	switch tree := impl.(type) {
	case *btree.Tree[relation.Tup1]:
		return makeScanRangeBT(tree, relation.KeyTup1, relation.FromTup1, tid, pat, bnd, body)
	case *btree.Tree[relation.Tup2]:
		return makeScanRangeBT(tree, relation.KeyTup2, relation.FromTup2, tid, pat, bnd, body)
	case *btree.Tree[relation.Tup3]:
		return makeScanRangeBT(tree, relation.KeyTup3, relation.FromTup3, tid, pat, bnd, body)
	case *btree.Tree[relation.Tup4]:
		return makeScanRangeBT(tree, relation.KeyTup4, relation.FromTup4, tid, pat, bnd, body)
	case *btree.Tree[relation.Tup5]:
		return makeScanRangeBT(tree, relation.KeyTup5, relation.FromTup5, tid, pat, bnd, body)
	case *btree.Tree[relation.Tup6]:
		return makeScanRangeBT(tree, relation.KeyTup6, relation.FromTup6, tid, pat, bnd, body)
	case *btree.Tree[relation.Tup7]:
		return makeScanRangeBT(tree, relation.KeyTup7, relation.FromTup7, tid, pat, bnd, body)
	case *btree.Tree[relation.Tup8]:
		return makeScanRangeBT(tree, relation.KeyTup8, relation.FromTup8, tid, pat, bnd, body)
	case *btree.Tree[relation.Tup9]:
		return makeScanRangeBT(tree, relation.KeyTup9, relation.FromTup9, tid, pat, bnd, body)
	case *btree.Tree[relation.Tup10]:
		return makeScanRangeBT(tree, relation.KeyTup10, relation.FromTup10, tid, pat, bnd, body)
	case *btree.Tree[relation.Tup11]:
		return makeScanRangeBT(tree, relation.KeyTup11, relation.FromTup11, tid, pat, bnd, body)
	case *btree.Tree[relation.Tup12]:
		return makeScanRangeBT(tree, relation.KeyTup12, relation.FromTup12, tid, pat, bnd, body)
	case *btree.Tree[relation.Tup13]:
		return makeScanRangeBT(tree, relation.KeyTup13, relation.FromTup13, tid, pat, bnd, body)
	case *btree.Tree[relation.Tup14]:
		return makeScanRangeBT(tree, relation.KeyTup14, relation.FromTup14, tid, pat, bnd, body)
	case *btree.Tree[relation.Tup15]:
		return makeScanRangeBT(tree, relation.KeyTup15, relation.FromTup15, tid, pat, bnd, body)
	case *btree.Tree[relation.Tup16]:
		return makeScanRangeBT(tree, relation.KeyTup16, relation.FromTup16, tid, pat, bnd, body)
	}
	panic(badImpl(impl))
}

func buildInsertBT(impls []any, orders []tuple.Order, arity int32, exprs []exprFn) opFn {
	switch impls[0].(type) {
	case *btree.Tree[relation.Tup1]:
		return makeInsertBT(impls, orders, relation.KeyTup1, arity, exprs)
	case *btree.Tree[relation.Tup2]:
		return makeInsertBT(impls, orders, relation.KeyTup2, arity, exprs)
	case *btree.Tree[relation.Tup3]:
		return makeInsertBT(impls, orders, relation.KeyTup3, arity, exprs)
	case *btree.Tree[relation.Tup4]:
		return makeInsertBT(impls, orders, relation.KeyTup4, arity, exprs)
	case *btree.Tree[relation.Tup5]:
		return makeInsertBT(impls, orders, relation.KeyTup5, arity, exprs)
	case *btree.Tree[relation.Tup6]:
		return makeInsertBT(impls, orders, relation.KeyTup6, arity, exprs)
	case *btree.Tree[relation.Tup7]:
		return makeInsertBT(impls, orders, relation.KeyTup7, arity, exprs)
	case *btree.Tree[relation.Tup8]:
		return makeInsertBT(impls, orders, relation.KeyTup8, arity, exprs)
	case *btree.Tree[relation.Tup9]:
		return makeInsertBT(impls, orders, relation.KeyTup9, arity, exprs)
	case *btree.Tree[relation.Tup10]:
		return makeInsertBT(impls, orders, relation.KeyTup10, arity, exprs)
	case *btree.Tree[relation.Tup11]:
		return makeInsertBT(impls, orders, relation.KeyTup11, arity, exprs)
	case *btree.Tree[relation.Tup12]:
		return makeInsertBT(impls, orders, relation.KeyTup12, arity, exprs)
	case *btree.Tree[relation.Tup13]:
		return makeInsertBT(impls, orders, relation.KeyTup13, arity, exprs)
	case *btree.Tree[relation.Tup14]:
		return makeInsertBT(impls, orders, relation.KeyTup14, arity, exprs)
	case *btree.Tree[relation.Tup15]:
		return makeInsertBT(impls, orders, relation.KeyTup15, arity, exprs)
	case *btree.Tree[relation.Tup16]:
		return makeInsertBT(impls, orders, relation.KeyTup16, arity, exprs)
	}
	panic(badImpl(impls[0]))
}

func buildExistsBT(impl any, arity int32, pat []exprFn, slot int32) condFn {
	switch tree := impl.(type) {
	case *btree.Tree[relation.Tup1]:
		return makeExistsBT(tree, relation.KeyTup1, arity, pat, slot)
	case *btree.Tree[relation.Tup2]:
		return makeExistsBT(tree, relation.KeyTup2, arity, pat, slot)
	case *btree.Tree[relation.Tup3]:
		return makeExistsBT(tree, relation.KeyTup3, arity, pat, slot)
	case *btree.Tree[relation.Tup4]:
		return makeExistsBT(tree, relation.KeyTup4, arity, pat, slot)
	case *btree.Tree[relation.Tup5]:
		return makeExistsBT(tree, relation.KeyTup5, arity, pat, slot)
	case *btree.Tree[relation.Tup6]:
		return makeExistsBT(tree, relation.KeyTup6, arity, pat, slot)
	case *btree.Tree[relation.Tup7]:
		return makeExistsBT(tree, relation.KeyTup7, arity, pat, slot)
	case *btree.Tree[relation.Tup8]:
		return makeExistsBT(tree, relation.KeyTup8, arity, pat, slot)
	case *btree.Tree[relation.Tup9]:
		return makeExistsBT(tree, relation.KeyTup9, arity, pat, slot)
	case *btree.Tree[relation.Tup10]:
		return makeExistsBT(tree, relation.KeyTup10, arity, pat, slot)
	case *btree.Tree[relation.Tup11]:
		return makeExistsBT(tree, relation.KeyTup11, arity, pat, slot)
	case *btree.Tree[relation.Tup12]:
		return makeExistsBT(tree, relation.KeyTup12, arity, pat, slot)
	case *btree.Tree[relation.Tup13]:
		return makeExistsBT(tree, relation.KeyTup13, arity, pat, slot)
	case *btree.Tree[relation.Tup14]:
		return makeExistsBT(tree, relation.KeyTup14, arity, pat, slot)
	case *btree.Tree[relation.Tup15]:
		return makeExistsBT(tree, relation.KeyTup15, arity, pat, slot)
	case *btree.Tree[relation.Tup16]:
		return makeExistsBT(tree, relation.KeyTup16, arity, pat, slot)
	}
	panic(badImpl(impl))
}

func buildAggregateBT(impl any, kind ram.AggKind, typ value.Type, tid int32, pat []exprFn, cond condFn, target exprFn, body opFn) opFn {
	switch tree := impl.(type) {
	case *btree.Tree[relation.Tup1]:
		return makeAggregateBT(tree, relation.KeyTup1, relation.FromTup1, kind, typ, tid, pat, cond, target, body)
	case *btree.Tree[relation.Tup2]:
		return makeAggregateBT(tree, relation.KeyTup2, relation.FromTup2, kind, typ, tid, pat, cond, target, body)
	case *btree.Tree[relation.Tup3]:
		return makeAggregateBT(tree, relation.KeyTup3, relation.FromTup3, kind, typ, tid, pat, cond, target, body)
	case *btree.Tree[relation.Tup4]:
		return makeAggregateBT(tree, relation.KeyTup4, relation.FromTup4, kind, typ, tid, pat, cond, target, body)
	case *btree.Tree[relation.Tup5]:
		return makeAggregateBT(tree, relation.KeyTup5, relation.FromTup5, kind, typ, tid, pat, cond, target, body)
	case *btree.Tree[relation.Tup6]:
		return makeAggregateBT(tree, relation.KeyTup6, relation.FromTup6, kind, typ, tid, pat, cond, target, body)
	case *btree.Tree[relation.Tup7]:
		return makeAggregateBT(tree, relation.KeyTup7, relation.FromTup7, kind, typ, tid, pat, cond, target, body)
	case *btree.Tree[relation.Tup8]:
		return makeAggregateBT(tree, relation.KeyTup8, relation.FromTup8, kind, typ, tid, pat, cond, target, body)
	case *btree.Tree[relation.Tup9]:
		return makeAggregateBT(tree, relation.KeyTup9, relation.FromTup9, kind, typ, tid, pat, cond, target, body)
	case *btree.Tree[relation.Tup10]:
		return makeAggregateBT(tree, relation.KeyTup10, relation.FromTup10, kind, typ, tid, pat, cond, target, body)
	case *btree.Tree[relation.Tup11]:
		return makeAggregateBT(tree, relation.KeyTup11, relation.FromTup11, kind, typ, tid, pat, cond, target, body)
	case *btree.Tree[relation.Tup12]:
		return makeAggregateBT(tree, relation.KeyTup12, relation.FromTup12, kind, typ, tid, pat, cond, target, body)
	case *btree.Tree[relation.Tup13]:
		return makeAggregateBT(tree, relation.KeyTup13, relation.FromTup13, kind, typ, tid, pat, cond, target, body)
	case *btree.Tree[relation.Tup14]:
		return makeAggregateBT(tree, relation.KeyTup14, relation.FromTup14, kind, typ, tid, pat, cond, target, body)
	case *btree.Tree[relation.Tup15]:
		return makeAggregateBT(tree, relation.KeyTup15, relation.FromTup15, kind, typ, tid, pat, cond, target, body)
	case *btree.Tree[relation.Tup16]:
		return makeAggregateBT(tree, relation.KeyTup16, relation.FromTup16, kind, typ, tid, pat, cond, target, body)
	}
	panic(badImpl(impl))
}
