package relation

import (
	"math"

	"sti/internal/btree"
	"sti/internal/tuple"
	"sti/internal/value"
)

// KeyFunc is the per-arity key glue (KeyTupN in tuples_gen.go): it builds a
// key from the first N values of an encoded tuple. Every caller reaches it
// through a func value, an indirect call, so the array is passed by value:
// a slice would make the caller's stack buffer escape to the heap.
type KeyFunc[K any] func([MaxArity]value.Value) K

// btreeAdapter is the dynamic adapter over a specialized B-tree instance
// (paper Fig 7). The key type K is one of the fixed-arity tuple types from
// tuples_gen.go; toKey/fromKey are the per-arity conversion glue installed
// by the generated factory. Because toKey takes arrays, the encoding
// buffers below stay on the stack: Insert, Delete, Contains, ContainsEncoded,
// containsEncodedHint, AnyMatch, InsertAll and walk allocate nothing.
type btreeAdapter[K btree.Key[K]] struct {
	tree    *btree.Tree[K]
	order   tuple.Order
	arity   int
	toKey   KeyFunc[K]
	fromKey func(K, tuple.Tuple)
}

func newBTreeAdapter[K btree.Key[K]](order tuple.Order, toKey KeyFunc[K], fromKey func(K, tuple.Tuple)) *btreeAdapter[K] {
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
	return a.toKey(enc)
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
		keys[kn] = a.toKey(enc)
		kn++
		if kn == bulkBatch {
			added += a.tree.InsertAll(keys[:kn])
			kn = 0
		}
	}
	added += a.tree.InsertAll(keys[:kn])
	return added
}

func (a *btreeAdapter[K]) ContainsEncoded(t tuple.Tuple) bool { return a.containsEncodedHint(t, nil) }

// containsEncodedHint is the fingered capability: h is the site's
// *btree.Hint[K], or nil to start from the root.
func (a *btreeAdapter[K]) containsEncodedHint(t tuple.Tuple, h any) bool {
	var enc [MaxArity]value.Value
	copy(enc[:a.arity], t)
	hint, _ := h.(*btree.Hint[K])
	return a.tree.ContainsHint(a.toKey(enc), hint)
}

func (a *btreeAdapter[K]) SwapContents(other Index) { a.tree.Swap(swapPeer(a, other).tree) }

func (a *btreeAdapter[K]) Scan() Iterator {
	return newBuffered(&btreeBatch[K]{it: a.tree.Iter(), fromKey: a.fromKey}, a.arity)
}

func (a *btreeAdapter[K]) PrefixScan(pattern tuple.Tuple, k int) Iterator {
	lo, hi := PrefixBounds(pattern[:k])
	return newBuffered(&btreeBatch[K]{
		it:      a.tree.Range(a.toKey(lo), a.toKey(hi)),
		fromKey: a.fromKey,
	}, a.arity)
}

func (a *btreeAdapter[K]) RangeScan(pattern tuple.Tuple, k int, lo, hi value.Value) Iterator {
	klo, khi := PrefixBounds(pattern[:k])
	klo[k], khi[k] = lo, hi
	return newBuffered(&btreeBatch[K]{
		it:      a.tree.Range(a.toKey(klo), a.toKey(khi)),
		fromKey: a.fromKey,
	}, a.arity)
}

// walk is the walker capability: the search's stack iterator, each key
// written into the visitor's slot and, in a non-natural order, decoded there
// through a stack copy.
func (a *btreeAdapter[K]) walk(prefix tuple.Tuple, k int, v Visitor) {
	var it btree.Iter[K]
	if k == 0 {
		it = a.tree.Iter()
	} else {
		lo, hi := PrefixBounds(prefix[:k])
		it = a.tree.Range(a.toKey(lo), a.toKey(hi))
	}
	natural := a.order.IsIdentity()
	for {
		key, ok := it.Next()
		if !ok {
			return
		}
		t := v.Slot()
		a.fromKey(key, t)
		if !natural {
			var enc [MaxArity]value.Value
			copy(enc[:a.arity], t)
			a.order.Decode(t, enc[:a.arity])
		}
		if !v.Visit(t) {
			return
		}
	}
}

func (a *btreeAdapter[K]) AnyMatch(pattern tuple.Tuple, k int) bool {
	if k == 0 {
		return a.tree.Size() > 0
	}
	lo, hi := PrefixBounds(pattern[:k])
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
		out = append(out, newBuffered(&btreeBatch[K]{
			it:      a.tree.SeekBefore(lo, &seps[i]),
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

// PrefixBounds returns the lower and upper key bounds of a search on an
// encoded prefix: the prefix's values, then the whole 32-bit domain in every
// later position. The bounds are arrays returned by value, ready for the
// by-value key glue, so a prefix search allocates nothing for them.
func PrefixBounds(prefix []value.Value) (lo, hi [MaxArity]value.Value) {
	copy(lo[:], prefix)
	copy(hi[:], prefix)
	for i := len(prefix); i < MaxArity; i++ {
		hi[i] = ^value.Value(0)
	}
	return lo, hi
}

// Bound is a typed interval on one column: the evaluated range half of a
// bounded search (ram.Bound). Lo and Hi count only when their Has flag is
// set, and exclude themselves when their Strict flag is.
type Bound struct {
	Type               value.Type
	Lo, Hi             value.Value
	HasLo, HasHi       bool
	LoStrict, HiStrict bool
}

// Keys maps b into storage order — the unsigned bit order of every index,
// see value.Compare — as the interval [lo, hi] of stored words that can
// satisfy it; ok is false when no word can. An unsigned bound maps exactly.
// A number bound narrows only when the values satisfying it form one
// unsigned interval (all non-negative, or all negative); one that straddles
// zero maps to the whole domain, and so do float and symbol bounds. The
// whole domain is never wrong, only unnarrowed: every caller keeps the
// comparison itself as a filter.
func (b Bound) Keys() (lo, hi value.Value, ok bool) {
	var min, max int64
	switch b.Type {
	case value.Unsigned:
		min, max = 0, math.MaxUint32
	case value.Number:
		min, max = math.MinInt32, math.MaxInt32
	default:
		return 0, math.MaxUint32, true
	}
	// The interval in the type's own order, widened to int64 so a strict
	// bound at either end of the domain cannot overflow.
	l, h := min, max
	if b.HasLo {
		l = b.word(b.Lo)
		if b.LoStrict {
			l++
		}
	}
	if b.HasHi {
		h = b.word(b.Hi)
		if b.HiStrict {
			h--
		}
	}
	switch {
	case l > h:
		return 0, 0, false
	case l < 0 && h >= 0:
		return 0, math.MaxUint32, true
	}
	return value.Value(l), value.Value(h), true
}

// word reads v in b's type as an int64.
func (b Bound) word(v value.Value) int64 {
	if b.Type == value.Number {
		return int64(value.AsInt(v))
	}
	return int64(v)
}
