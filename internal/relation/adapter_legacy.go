package relation

import (
	"sti/internal/btree"
	"sti/internal/tuple"
	"sti/internal/value"
)

// legacyAdapter is the relation store of the legacy interpreter (§5.1): the
// engine's B-tree, instantiated with a key that carries its index order and
// interprets it on every comparison, each key a separately allocated string.
// Tuples are stored in source order; the encoded view required by the Index
// contract is produced on output.
type legacyAdapter struct {
	tree  *btree.Tree[legacyKey]
	order tuple.Order
	ord   string // order as bytes, shared by every key the adapter makes
}

// legacyKey is a source-order tuple, its words in tuple.AppendKey's
// encoding, with the index order it is compared by, one byte per position.
// The tree tests key equality with ==, so both fields compare by content:
// the keys of two indexes of the same order are interchangeable, as
// SwapContents needs.
type legacyKey struct {
	words, order string
}

// word returns the word at source position p.
func (k legacyKey) word(p int) value.Value {
	w := k.words[p*tuple.KeyWidth:]
	return value.Value(w[0])<<24 | value.Value(w[1])<<16 | value.Value(w[2])<<8 | value.Value(w[3])
}

// Cmp is the legacy runtime comparator: it walks the order and compares the
// words it addresses.
func (k legacyKey) Cmp(o legacyKey) int {
	for i := 0; i < len(k.order); i++ {
		p := int(k.order[i])
		switch a, b := k.word(p), o.word(p); {
		case a < b:
			return -1
		case a > b:
			return 1
		}
	}
	return 0
}

// Hash folds the words into the top bits for the tree's duplicate cache.
func (k legacyKey) Hash() uint64 {
	var h uint64
	for p := 0; p < len(k.order); p++ {
		h = (h ^ uint64(k.word(p))) * hashMul
	}
	return h
}

func newLegacyAdapter(order tuple.Order) *legacyAdapter {
	ord := make([]byte, len(order))
	for i, p := range order {
		ord[i] = byte(p)
	}
	return &legacyAdapter{tree: btree.New[legacyKey](), order: order, ord: string(ord)}
}

// key allocates the tree key of a source-order tuple.
func (a *legacyAdapter) key(t tuple.Tuple) legacyKey {
	var buf [MaxArity * tuple.KeyWidth]byte
	return legacyKey{string(tuple.AppendKey(buf[:0], t[:len(a.order)])), a.ord}
}

func (a *legacyAdapter) Order() tuple.Order { return a.order }
func (a *legacyAdapter) Size() int          { return a.tree.Size() }
func (a *legacyAdapter) Clear()             { a.tree.Clear() }
func (a *legacyAdapter) impl() any          { return a.tree }

func (a *legacyAdapter) Insert(t tuple.Tuple) bool   { return a.tree.Insert(a.key(t)) }
func (a *legacyAdapter) Delete(t tuple.Tuple) bool   { return a.tree.Remove(a.key(t)) }
func (a *legacyAdapter) Contains(t tuple.Tuple) bool { return a.tree.Contains(a.key(t)) }

func (a *legacyAdapter) ContainsEncoded(t tuple.Tuple) bool {
	var src [MaxArity]value.Value
	a.order.Decode(src[:len(a.order)], t)
	return a.Contains(src[:len(a.order)])
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
	return &legacyIter{it: a.tree.Range(a.key(lo), a.key(hi)), order: a.order, out: make(tuple.Tuple, arity)}
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
	it    btree.Iter[legacyKey]
	order tuple.Order
	out   tuple.Tuple
}

func (l *legacyIter) Next() (tuple.Tuple, bool) {
	src, ok := l.it.Next()
	if !ok {
		return nil, false
	}
	for i, p := range l.order {
		l.out[i] = src.word(p)
	}
	return l.out, true
}
