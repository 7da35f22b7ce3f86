package relation

import (
	"sti/internal/brie"
	"sti/internal/eqrel"
	"sti/internal/tuple"
	"sti/internal/value"
)

// --- brie ---

// brieAdapter wraps a trie. The trie works on dynamic tuples natively, so no
// per-arity glue is needed; it still goes through the same buffered-iterator
// discipline as the B-tree in dynamic mode.
type brieAdapter struct {
	trie  *brie.Trie
	order tuple.Order
}

func newBrieAdapter(order tuple.Order) *brieAdapter {
	return &brieAdapter{trie: brie.New(len(order)), order: order}
}

func (a *brieAdapter) Order() tuple.Order { return a.order }
func (a *brieAdapter) Size() int          { return a.trie.Size() }
func (a *brieAdapter) Clear()             { a.trie.Clear() }
func (a *brieAdapter) impl() any          { return a.trie }

func (a *brieAdapter) encode(t tuple.Tuple) tuple.Tuple {
	if a.order.IsIdentity() {
		return t
	}
	return a.order.Encoded(t)
}

func (a *brieAdapter) Insert(t tuple.Tuple) bool          { return a.trie.Insert(a.encode(t)) }
func (a *brieAdapter) Delete(t tuple.Tuple) bool          { return a.trie.Remove(a.encode(t)) }
func (a *brieAdapter) Contains(t tuple.Tuple) bool        { return a.trie.Contains(a.encode(t)) }
func (a *brieAdapter) ContainsEncoded(t tuple.Tuple) bool { return a.trie.Contains(t) }

func (a *brieAdapter) InsertAll(flat []value.Value, count int) int {
	arity := a.trie.Arity()
	if a.order.IsIdentity() {
		return a.trie.InsertAll(flat[:count*arity])
	}
	var enc [MaxArity]value.Value
	added := 0
	for i := 0; i < count; i++ {
		a.order.Encode(enc[:arity], flat[i*arity:(i+1)*arity])
		if a.trie.Insert(enc[:arity]) {
			added++
		}
	}
	return added
}

func (a *brieAdapter) SwapContents(other Index) { a.trie.Swap(swapPeer(a, other).trie) }

func (a *brieAdapter) Scan() Iterator {
	return newBuffered(&brieBatch{it: a.trie.Iter()}, a.trie.Arity())
}

func (a *brieAdapter) PrefixScan(pattern tuple.Tuple, k int) Iterator {
	return newBuffered(&brieBatch{it: a.trie.Prefix(pattern[:k])}, a.trie.Arity())
}

func (a *brieAdapter) AnyMatch(pattern tuple.Tuple, k int) bool {
	return a.trie.HasPrefix(pattern[:k])
}

type brieBatch struct {
	it *brie.Iter
}

func (s *brieBatch) nextBatch(dst []tuple.Tuple) int {
	for i := range dst {
		t, ok := s.it.Next()
		if !ok {
			return i
		}
		copy(dst[i], t)
	}
	return len(dst)
}

// --- eqrel ---

// eqrelAdapter wraps the union-find relation. Equivalence relations are
// binary and always kept in natural order; the implied-pair iterators of
// internal/eqrel already enumerate lexicographically.
type eqrelAdapter struct {
	rel *eqrel.Rel
}

func newEqrelAdapter(order tuple.Order) *eqrelAdapter {
	if len(order) != 2 || !order.IsIdentity() {
		panic("relation: eqrel indexes are binary and natural-ordered")
	}
	return &eqrelAdapter{rel: eqrel.New()}
}

func (a *eqrelAdapter) Order() tuple.Order { return tuple.Identity(2) }
func (a *eqrelAdapter) Size() int          { return a.rel.Size() }
func (a *eqrelAdapter) Clear()             { a.rel.Clear() }
func (a *eqrelAdapter) impl() any          { return a.rel }

func (a *eqrelAdapter) Insert(t tuple.Tuple) bool          { return a.rel.Insert(t[0], t[1]) }
func (a *eqrelAdapter) Contains(t tuple.Tuple) bool        { return a.rel.Contains(t[0], t[1]) }
func (a *eqrelAdapter) ContainsEncoded(t tuple.Tuple) bool { return a.rel.Contains(t[0], t[1]) }

func (a *eqrelAdapter) InsertAll(flat []value.Value, count int) int {
	return a.rel.InsertPairs(flat[:count*2])
}

func (a *eqrelAdapter) SwapContents(other Index) {
	o := swapPeer(a, other)
	a.rel, o.rel = o.rel, a.rel
}

func (a *eqrelAdapter) Scan() Iterator { return a.rel.Iter() }

func (a *eqrelAdapter) PrefixScan(pattern tuple.Tuple, k int) Iterator {
	switch k {
	case 0:
		return a.rel.Iter()
	case 1:
		return a.rel.PrefixFirst(pattern[0])
	default:
		if a.rel.Contains(pattern[0], pattern[1]) {
			return &singleIter{t: tuple.Tuple{pattern[0], pattern[1]}}
		}
		return emptyIter{}
	}
}

func (a *eqrelAdapter) AnyMatch(pattern tuple.Tuple, k int) bool {
	switch k {
	case 0:
		return a.rel.Size() > 0
	case 1:
		return a.rel.Class(pattern[0]) != nil
	default:
		return a.rel.Contains(pattern[0], pattern[1])
	}
}

// singleIter yields exactly one tuple.
type singleIter struct {
	t    tuple.Tuple
	done bool
}

func (s *singleIter) Next() (tuple.Tuple, bool) {
	if s.done {
		return nil, false
	}
	s.done = true
	return s.t, true
}

// --- nullary ---

// nullaryAdapter stores the zero-arity relation: either empty or holding the
// single empty tuple. Nullary relations act as propositional flags.
type nullaryAdapter struct {
	set bool
}

func (a *nullaryAdapter) Order() tuple.Order { return tuple.Order{} }
func (a *nullaryAdapter) Size() int {
	if a.set {
		return 1
	}
	return 0
}
func (a *nullaryAdapter) Clear()    { a.set = false }
func (a *nullaryAdapter) impl() any { return a }

func (a *nullaryAdapter) Insert(tuple.Tuple) bool {
	added := !a.set
	a.set = true
	return added
}

func (a *nullaryAdapter) Delete(tuple.Tuple) bool {
	was := a.set
	a.set = false
	return was
}

func (a *nullaryAdapter) Contains(tuple.Tuple) bool        { return a.set }
func (a *nullaryAdapter) ContainsEncoded(tuple.Tuple) bool { return a.set }

func (a *nullaryAdapter) SwapContents(other Index) {
	o := swapPeer(a, other)
	a.set, o.set = o.set, a.set
}

func (a *nullaryAdapter) Scan() Iterator {
	if a.set {
		return &singleIter{t: tuple.Tuple{}}
	}
	return emptyIter{}
}

func (a *nullaryAdapter) PrefixScan(pattern tuple.Tuple, k int) Iterator { return a.Scan() }

func (a *nullaryAdapter) AnyMatch(pattern tuple.Tuple, k int) bool { return a.set }
