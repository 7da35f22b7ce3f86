package relation

import (
	"sti/internal/btree"
	"sti/internal/tuple"
	"sti/internal/value"
)

// btreeAdapter is the dynamic adapter over a specialized B-tree instance
// (paper Fig 7). The key type K is one of the fixed-arity tuple types from
// tuples_gen.go; toKey/fromKey are the per-arity conversion glue installed
// by the generated factory.
type btreeAdapter[K btree.Key[K]] struct {
	tree    *btree.Tree[K]
	order   tuple.Order
	arity   int
	toKey   func(tuple.Tuple) K
	fromKey func(K, tuple.Tuple)
}

func newBTreeAdapter[K btree.Key[K]](order tuple.Order, toKey func(tuple.Tuple) K, fromKey func(K, tuple.Tuple)) *btreeAdapter[K] {
	return &btreeAdapter[K]{
		tree:    btree.New[K](),
		order:   order,
		arity:   len(order),
		toKey:   toKey,
		fromKey: fromKey,
	}
}

func (a *btreeAdapter[K]) Order() tuple.Order { return a.order }
func (a *btreeAdapter[K]) Size() int          { return a.tree.Size() }
func (a *btreeAdapter[K]) Clear()             { a.tree.Clear() }
func (a *btreeAdapter[K]) impl() any          { return a.tree }

func (a *btreeAdapter[K]) encode(t tuple.Tuple) K {
	var enc [MaxArity]value.Value
	a.order.Encode(enc[:a.arity], t)
	return a.toKey(enc[:a.arity])
}

func (a *btreeAdapter[K]) Insert(t tuple.Tuple) bool   { return a.tree.Insert(a.encode(t)) }
func (a *btreeAdapter[K]) Delete(t tuple.Tuple) bool   { return a.tree.Remove(a.encode(t)) }
func (a *btreeAdapter[K]) Contains(t tuple.Tuple) bool { return a.tree.Contains(a.encode(t)) }

// bulkBatch is how many encoded keys an InsertAll accumulates on the stack
// before handing them to the tree's bulk entry point.
const bulkBatch = 64

func (a *btreeAdapter[K]) InsertAll(flat []value.Value, count int) int {
	var enc [MaxArity]value.Value
	var keys [bulkBatch]K
	added, kn := 0, 0
	for i := 0; i < count; i++ {
		a.order.Encode(enc[:a.arity], flat[i*a.arity:(i+1)*a.arity])
		keys[kn] = a.toKey(enc[:a.arity])
		kn++
		if kn == bulkBatch {
			added += a.tree.InsertAll(keys[:kn])
			kn = 0
		}
	}
	added += a.tree.InsertAll(keys[:kn])
	return added
}

func (a *btreeAdapter[K]) ContainsEncoded(t tuple.Tuple) bool {
	return a.tree.Contains(a.toKey(t))
}

func (a *btreeAdapter[K]) SwapContents(other Index) { a.tree.Swap(swapPeer(a, other).tree) }

func (a *btreeAdapter[K]) Scan() Iterator {
	return newBuffered(&btreeBatch[K]{it: a.tree.Iter(), fromKey: a.fromKey}, a.arity)
}

func (a *btreeAdapter[K]) PrefixScan(pattern tuple.Tuple, k int) Iterator {
	lo, hi := prefixBounds(pattern, k, a.arity)
	return newBuffered(&btreeBatch[K]{
		it:      a.tree.Range(a.toKey(lo), a.toKey(hi)),
		fromKey: a.fromKey,
	}, a.arity)
}

func (a *btreeAdapter[K]) AnyMatch(pattern tuple.Tuple, k int) bool {
	if k == 0 {
		return a.tree.Size() > 0
	}
	lo, hi := prefixBounds(pattern, k, a.arity)
	it := a.tree.Range(a.toKey(lo), a.toKey(hi))
	_, ok := it.Next()
	return ok
}

// PartitionScan splits the full scan at tree separator keys into up to n
// disjoint, collectively exhaustive ranges for parallel evaluation.
func (a *btreeAdapter[K]) PartitionScan(n int) []Iterator {
	seps := a.tree.SeparatorKeys(n)
	if len(seps) == 0 {
		return []Iterator{a.Scan()}
	}
	var out []Iterator
	var lo *K
	for i := range seps {
		hi := seps[i]
		out = append(out, newBuffered(&btreeBatch[K]{
			it:      a.tree.SeekBefore(lo, &hi),
			fromKey: a.fromKey,
		}, a.arity))
		lo = &seps[i]
	}
	out = append(out, newBuffered(&btreeBatch[K]{
		it:      a.tree.SeekBefore(lo, nil),
		fromKey: a.fromKey,
	}, a.arity))
	return out
}

// btreeBatch adapts a concrete B-tree iterator to the wide batcher call.
type btreeBatch[K btree.Key[K]] struct {
	it      btree.Iter[K]
	fromKey func(K, tuple.Tuple)
}

func (s *btreeBatch[K]) nextBatch(dst []tuple.Tuple) int {
	for i := range dst {
		k, ok := s.it.Next()
		if !ok {
			return i
		}
		s.fromKey(k, dst[i])
	}
	return len(dst)
}

// prefixBounds builds the lower and upper bound patterns of a prefix search:
// encoded positions 0..k-1 carry the fixed values, the rest range over the
// whole 32-bit domain.
func prefixBounds(pattern tuple.Tuple, k, arity int) (lo, hi tuple.Tuple) {
	lo = make(tuple.Tuple, arity)
	hi = make(tuple.Tuple, arity)
	copy(lo, pattern[:k])
	copy(hi, pattern[:k])
	for i := k; i < arity; i++ {
		lo[i] = 0
		hi[i] = ^value.Value(0)
	}
	return lo, hi
}
