package interp

import (
	"sti/internal/brie"
	"sti/internal/btree"
	"sti/internal/eqrel"
	"sti/internal/ram"
	"sti/internal/relation"
	"sti/internal/tuple"
	"sti/internal/value"
)

// This file holds the bodies of the specialized instructions (paper §4.1,
// Fig 11c): generic helpers instantiated per fixed-arity key type by the
// generated dispatch in specialized_gen.go. Each helper type-asserts the
// concrete structure once, then runs with stack-allocated fixed-size tuples,
// concrete iterators, and no interface dispatch on the per-tuple path.
//
// Nothing on that path allocates, by three rules. B-tree iterators are values
// whose traversal stack is a fixed-depth array (btree.Iter). Keys are built
// from [MaxArity] arrays that cross the per-arity glue (toKey, an indirect
// call) by value, so the arrays stay in this frame. Buffers that must be
// passed as slices through an indirect call live in the context instead:
// bindKey's decoding scratch, and the dynamic insert's and existence check's
// tuple (exec.go). CI fails the build on any "moved to heap" the compiler
// reports for this file, the adapter or the tree, and on any allocation
// call compiled from the iterator.
//
// One family serves unsharded and hash-sharded relations alike: every node
// carries the slice of concrete stores it may touch (inode.impls), and the
// tree generator decides whether the instruction routes by partition hash
// (inode.shards > 1). An unsharded relation is the one-store case — no hash,
// no division, one predictable branch per instruction. A sharded search whose
// bound prefix covers the partition key visits the owning shard only;
// otherwise it visits the shards back to back. Shard order (rather than
// globally sorted order) is observationally equivalent for scans and
// existence checks; the order-sensitive instructions (choice, aggregate) stay
// on the dynamic adapter under sharding (generator.orderedOpcode).

type fromKeyFn[K btree.Key[K]] func(K, tuple.Tuple)

// insertShard returns the shard owning the freshly built source tuple src:
// shard 0 without hashing unless the node routes (n.shards > 1).
func (n *inode) insertShard(src []value.Value) int {
	if n.shards <= 1 {
		return 0
	}
	return relation.ShardOf(src[n.shardKey], int(n.shards))
}

// searchImpls returns the stores a search with bound prefix pat visits: all
// of n.impls (the one tree of an unsharded relation) unless the node routes,
// in which case only the shard owning pat's partition key can hold matches.
func (n *inode) searchImpls(pat []value.Value) []any {
	if n.shards <= 1 {
		return n.impls
	}
	sh := relation.ShardOf(pat[n.shardKey], int(n.shards))
	return n.impls[sh : sh+1]
}

// evalInsertBT inserts a freshly built source tuple into every B-tree index
// of the relation (the owning shard of each, see inode.impls). Every index
// holds the same tuples, so a duplicate in the primary index is one in all
// of them and costs that one probe. Under a staged query the source tuple
// goes to the worker-local buffer instead; the merge encodes per index.
func evalInsertBT[K btree.Key[K]](ex *executor, n *inode, ctx *context, toKey relation.KeyFunc[K], _ fromKeyFn[K]) value.Value {
	var src, enc [relation.MaxArity]value.Value
	ex.fillTuple(n, ctx, src[:n.arity])
	if ex.stageInsert(n, ctx, src[:n.arity]) {
		return 0
	}
	stride, sh := int(n.shards), n.insertShard(src[:])
	added := true
	for i, ord := range n.orders {
		ord.Encode(enc[:n.arity], src[:n.arity])
		if !n.impls[i*stride+sh].(*btree.Tree[K]).Insert(toKey(enc)) {
			added = false
			break
		}
	}
	ex.countInsert(ctx, added)
	if n.rstats != nil {
		// The static path bypasses Relation.Insert (and its counters), so the
		// relation-level stats are bumped here.
		n.rstats.CountInsert(added)
	}
	return 0
}

// btRange prepares the concrete range iterator of a prefix search on tree,
// narrowed to [blo, bhi] in the next position when the node has a range
// bound (the storage interval executor.boundKeys evaluated at scan start).
func btRange[K btree.Key[K]](tree *btree.Tree[K], n *inode, pat []value.Value, blo, bhi value.Value, toKey relation.KeyFunc[K]) btree.Iter[K] {
	if n.prefix == 0 && n.bound == nil {
		return tree.Iter()
	}
	lo, hi := relation.PrefixBounds(pat)
	if n.bound != nil {
		lo[n.prefix], hi[n.prefix] = blo, bhi
	}
	return tree.Range(toKey(lo), toKey(hi))
}

func evalExistsBT[K btree.Key[K]](ex *executor, n *inode, ctx *context, toKey relation.KeyFunc[K], _ fromKeyFn[K]) value.Value {
	var pat [relation.MaxArity]value.Value
	ex.fillTuple(n, ctx, pat[:n.prefix])
	for _, impl := range n.searchImpls(pat[:]) {
		tree := impl.(*btree.Tree[K])
		var found bool
		switch {
		case n.prefix == n.arity:
			found = tree.Contains(toKey(pat))
		case n.prefix == 0:
			found = tree.Size() > 0
		default:
			it := btRange(tree, n, pat[:n.prefix], 0, 0, toKey)
			_, found = it.Next()
		}
		if found {
			return 1
		}
	}
	return 0
}

// bindKey writes key k into the context slot for n.tupleID, decoding to
// source coordinates when static reordering is off. Both buffers fromKey
// writes into live in the context, so nothing is allocated per tuple.
func bindKey[K btree.Key[K]](n *inode, ctx *context, k K, fromKey fromKeyFn[K]) {
	slot := ctx.tuples[n.tupleID]
	if n.decode {
		enc := ctx.scratch[:n.arity]
		fromKey(k, enc)
		n.order.Decode(slot, enc)
		return
	}
	fromKey(k, slot)
}

// scanBT runs a scan body over one tree's iterator: the per-tuple loop of
// every B-tree scan, once per store the instruction visits.
func scanBT[K btree.Key[K]](ex *executor, n *inode, ctx *context, it *btree.Iter[K], fromKey fromKeyFn[K]) {
	fused := n.fused // a fused filter folded into this scan (generator.foldFilter)
	for {
		k, ok := it.Next()
		if !ok {
			return
		}
		bindKey(n, ctx, k, fromKey)
		ex.countIter(ctx)
		if fused != nil && !fused(ctx.tuples) {
			continue
		}
		ex.eval(n.nested, ctx)
	}
}

// evalScanRangeBT is the B-tree scan: it opens the search's range (btRange;
// the whole tree when the search is unkeyed) in every store it visits.
func evalScanRangeBT[K btree.Key[K]](ex *executor, n *inode, ctx *context, toKey relation.KeyFunc[K], fromKey fromKeyFn[K]) value.Value {
	var pat [relation.MaxArity]value.Value
	ex.fillTuple(n, ctx, pat[:n.prefix])
	blo, bhi, ok := ex.boundKeys(n, ctx)
	if !ok {
		return 0
	}
	for _, impl := range n.searchImpls(pat[:]) {
		it := btRange(impl.(*btree.Tree[K]), n, pat[:n.prefix], blo, bhi, toKey)
		scanBT(ex, n, ctx, &it, fromKey)
	}
	return 0
}

// evalChoiceRangeBT is the B-tree choice: the scan's range, stopping at the
// first tuple that satisfies the condition.
func evalChoiceRangeBT[K btree.Key[K]](ex *executor, n *inode, ctx *context, toKey relation.KeyFunc[K], fromKey fromKeyFn[K]) value.Value {
	var pat [relation.MaxArity]value.Value
	ex.fillTuple(n, ctx, pat[:n.prefix])
	blo, bhi, ok := ex.boundKeys(n, ctx)
	if !ok {
		return 0
	}
	it := btRange(n.impls[0].(*btree.Tree[K]), n, pat[:n.prefix], blo, bhi, toKey)
	for {
		k, ok := it.Next()
		if !ok {
			return 0
		}
		bindKey(n, ctx, k, fromKey)
		ex.countIter(ctx)
		if n.cond == nil || ex.eval(n.cond, ctx) != 0 {
			ex.eval(n.nested, ctx)
			return 0
		}
	}
}

func aggBT[K btree.Key[K]](ex *executor, n *inode, ctx *context, it *btree.Iter[K], fromKey fromKeyFn[K]) value.Value {
	ctx.tuples[n.tupleID] = ctx.base[n.tupleID]
	var acc aggAcc
	acc.Init(ram.AggKind(n.a), value.Type(n.b))
	for {
		k, ok := it.Next()
		if !ok {
			break
		}
		bindKey(n, ctx, k, fromKey)
		ex.countIter(ctx)
		if n.cond != nil && ex.eval(n.cond, ctx) == 0 {
			continue
		}
		var v value.Value
		if n.target != nil {
			v = ex.eval(n.target, ctx)
		}
		acc.Step(v)
	}
	if res, ok := acc.Finish(); ok {
		ctx.bindResult(n.tupleID, res)
		ex.eval(n.nested, ctx)
	}
	return 0
}

// evalAggregateRangeBT is the B-tree aggregate over the search's range.
func evalAggregateRangeBT[K btree.Key[K]](ex *executor, n *inode, ctx *context, toKey relation.KeyFunc[K], fromKey fromKeyFn[K]) value.Value {
	var pat [relation.MaxArity]value.Value
	ex.fillTuple(n, ctx, pat[:n.prefix])
	it := btRange(n.impls[0].(*btree.Tree[K]), n, pat[:n.prefix], 0, 0, toKey)
	return aggBT(ex, n, ctx, &it, fromKey)
}

// execNonGeneric handles the handwritten specialized instructions for the
// structures that are not arity-generic: the binary equivalence relation
// and the dynamic-depth brie.
func (ex *executor) execNonGeneric(n *inode, ctx *context) (value.Value, bool) {
	switch n.op {
	case opInsertEq:
		var t [2]value.Value
		ex.fillTuple(n, ctx, t[:])
		if ex.stageInsert(n, ctx, t[:]) {
			return 0, true
		}
		rel := n.impls[0].(*eqrel.Rel)
		added := rel.Insert(t[0], t[1])
		ex.countInsert(ctx, added)
		if n.rstats != nil {
			n.rstats.CountInsert(added)
		}
		return 0, true
	case opScanEq:
		rel := n.impls[0].(*eqrel.Rel)
		var pat [2]value.Value
		ex.fillTuple(n, ctx, pat[:n.prefix])
		slot := ctx.tuples[n.tupleID]
		if n.prefix == 2 {
			if rel.Contains(pat[0], pat[1]) {
				copy(slot, pat[:])
				ex.countIter(ctx)
				ex.eval(n.nested, ctx)
			}
			return 0, true
		}
		var it *eqrel.Iter
		if n.prefix == 1 {
			it = rel.PrefixFirst(pat[0])
		} else {
			it = rel.Iter()
		}
		for {
			t, ok := it.Next()
			if !ok {
				return 0, true
			}
			copy(slot, t)
			ex.countIter(ctx)
			ex.eval(n.nested, ctx)
		}
	case opExistsEq:
		rel := n.impls[0].(*eqrel.Rel)
		var pat [2]value.Value
		ex.fillTuple(n, ctx, pat[:n.prefix])
		switch n.prefix {
		case 0:
			return boolVal(rel.Size() > 0), true
		case 1:
			return boolVal(rel.Class(pat[0]) != nil), true
		default:
			return boolVal(rel.Contains(pat[0], pat[1])), true
		}

	case opInsertBrie:
		var src, enc [relation.MaxArity]value.Value
		ex.fillTuple(n, ctx, src[:n.arity])
		if ex.stageInsert(n, ctx, src[:n.arity]) {
			return 0, true
		}
		stride, sh := int(n.shards), n.insertShard(src[:])
		added := true
		for i, ord := range n.orders {
			ord.Encode(enc[:n.arity], src[:n.arity])
			if !n.impls[i*stride+sh].(*brie.Trie).Insert(enc[:n.arity]) {
				added = false
				break
			}
		}
		ex.countInsert(ctx, added)
		if n.rstats != nil {
			n.rstats.CountInsert(added)
		}
		return 0, true
	case opScanBrie:
		var pat [relation.MaxArity]value.Value
		ex.fillTuple(n, ctx, pat[:n.prefix])
		slot := ctx.tuples[n.tupleID]
		for _, impl := range n.searchImpls(pat[:]) {
			it := impl.(*brie.Trie).Prefix(pat[:n.prefix])
			for {
				t, ok := it.Next()
				if !ok {
					break
				}
				if n.decode {
					n.order.Decode(slot, t)
				} else {
					copy(slot, t)
				}
				ex.countIter(ctx)
				ex.eval(n.nested, ctx)
			}
		}
		return 0, true
	case opExistsBrie:
		var pat [relation.MaxArity]value.Value
		ex.fillTuple(n, ctx, pat[:n.prefix])
		for _, impl := range n.searchImpls(pat[:]) {
			trie := impl.(*brie.Trie)
			if n.prefix == n.arity && trie.Contains(pat[:n.arity]) ||
				n.prefix < n.arity && trie.HasPrefix(pat[:n.prefix]) {
				return 1, true
			}
		}
		return 0, true
	}
	return 0, false
}
