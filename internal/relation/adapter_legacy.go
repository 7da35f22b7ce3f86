package relation

import (
	"sti/internal/dyntree"
	"sti/internal/tuple"
	"sti/internal/value"
)

// legacyAdapter is the relation store of the legacy interpreter (§5.1): a
// B-tree ordered by a *runtime* comparator that interprets the order array
// on every comparison. Tuples are stored in source order; the encoded view
// required by the Index contract is produced on output.
type legacyAdapter struct {
	tree  *dyntree.Tree
	order tuple.Order
}

func newLegacyAdapter(order tuple.Order) *legacyAdapter {
	return &legacyAdapter{tree: dyntree.New(dyntree.OrderCmp(order)), order: order}
}

func (a *legacyAdapter) Order() tuple.Order { return a.order }
func (a *legacyAdapter) Size() int          { return a.tree.Size() }
func (a *legacyAdapter) Clear()             { a.tree.Clear() }
func (a *legacyAdapter) impl() any          { return a.tree }

func (a *legacyAdapter) Insert(t tuple.Tuple) bool   { return a.tree.Insert(t) }
func (a *legacyAdapter) Delete(t tuple.Tuple) bool   { return a.tree.Remove(t) }
func (a *legacyAdapter) Contains(t tuple.Tuple) bool { return a.tree.Contains(t) }

func (a *legacyAdapter) ContainsEncoded(t tuple.Tuple) bool {
	var src [MaxArity]value.Value
	a.order.Decode(src[:len(a.order)], t)
	return a.tree.Contains(src[:len(a.order)])
}

func (a *legacyAdapter) SwapContents(other Index) { a.tree.Swap(swapPeer(a, other).tree) }

func (a *legacyAdapter) Scan() Iterator {
	return &legacyIter{it: a.tree.Iter(), order: a.order, out: make(tuple.Tuple, len(a.order))}
}

func (a *legacyAdapter) PrefixScan(pattern tuple.Tuple, k int) Iterator {
	if k == len(a.order) {
		return a.RangeScan(pattern[:k-1], k-1, pattern[k-1], pattern[k-1])
	}
	return a.RangeScan(pattern, k, 0, ^value.Value(0))
}

func (a *legacyAdapter) RangeScan(pattern tuple.Tuple, k int, klo, khi value.Value) Iterator {
	arity := len(a.order)
	lo := make(tuple.Tuple, arity)
	hi := make(tuple.Tuple, arity)
	for i := 0; i < k; i++ {
		lo[a.order[i]] = pattern[i]
		hi[a.order[i]] = pattern[i]
	}
	lo[a.order[k]], hi[a.order[k]] = klo, khi
	for i := k + 1; i < arity; i++ {
		hi[a.order[i]] = ^value.Value(0)
	}
	return &legacyIter{it: a.tree.Range(lo, hi), order: a.order, out: make(tuple.Tuple, arity)}
}

func (a *legacyAdapter) AnyMatch(pattern tuple.Tuple, k int) bool {
	if k == 0 {
		return a.tree.Size() > 0
	}
	it := a.PrefixScan(pattern, k)
	_, ok := it.Next()
	return ok
}

// legacyIter re-encodes stored source-order tuples into the encoded view on
// every step — the runtime reordering cost the legacy design pays.
type legacyIter struct {
	it    *dyntree.Iter
	order tuple.Order
	out   tuple.Tuple
}

func (l *legacyIter) Next() (tuple.Tuple, bool) {
	src, ok := l.it.Next()
	if !ok {
		return nil, false
	}
	l.order.Encode(l.out, src)
	return l.out, true
}
