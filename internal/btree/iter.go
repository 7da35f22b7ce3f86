package btree

// Iter is a forward in-order iterator, optionally bounded above. The zero
// value is an exhausted iterator. Iterators are invalidated by any mutation
// of the tree they traverse.
//
// The traversal stack is a pair of fixed arrays (see maxHeight), so an
// iterator is a plain value: creating, copying and draining one allocates
// nothing. nodes[d] is the node at depth d and pos[d] the index of the next
// key to visit in it (at most maxKeys, so a byte holds it).
type Iter[K Key[K]] struct {
	nodes [maxHeight]*node[K]
	pos   [maxHeight]uint8
	depth int
	hi    K
	bound bound
	words bool // the tree's word-key flag, for the bound test and seek
}

// bound is the kind of upper bound an iterator stops at.
type bound uint8

const (
	unbounded bound = iota
	inclusive       // keys <= hi (Range)
	exclusive       // keys < hi (SeekBefore, partitioned scans)
)

// Iter returns an iterator over all keys in ascending order.
func (t *Tree[K]) Iter() Iter[K] {
	var it Iter[K]
	it.pushLeft(t.root)
	return it
}

// Seek returns an iterator positioned at the first key >= lo.
func (t *Tree[K]) Seek(lo K) Iter[K] {
	it := Iter[K]{words: t.words}
	it.seek(t.root, lo)
	return it
}

// Range returns an iterator over keys k with lo <= k <= hi.
func (t *Tree[K]) Range(lo, hi K) Iter[K] {
	it := Iter[K]{hi: hi, bound: inclusive, words: t.words}
	it.seek(t.root, lo)
	return it
}

// push appends a level to the traversal stack.
func (it *Iter[K]) push(nd *node[K], i int) {
	it.nodes[it.depth] = nd
	it.pos[it.depth] = uint8(i)
	it.depth++
}

// pushLeft descends to the leftmost position of the subtree rooted at nd.
func (it *Iter[K]) pushLeft(nd *node[K]) {
	for nd != nil {
		it.push(nd, 0)
		if nd.leaf() {
			return
		}
		nd = nd.children[0]
	}
}

// seek builds the traversal stack so that Next yields keys >= lo in order.
func (it *Iter[K]) seek(nd *node[K], lo K) {
	for nd != nil {
		i, _ := nd.find(lo, it.words)
		it.push(nd, i)
		if nd.leaf() {
			return
		}
		nd = nd.children[i]
	}
}

// Next returns the next key, or ok=false when the iterator is exhausted or
// the next key exceeds the upper bound.
func (it *Iter[K]) Next() (K, bool) {
	for it.depth > 0 {
		d := it.depth - 1
		nd, i := it.nodes[d], int(it.pos[d])
		if i < int(nd.n) {
			k := nd.keys[i]
			if it.bound != unbounded {
				var past bool
				if it.words {
					// Past an inclusive bound once hi < k; past an exclusive
					// one unless k < hi.
					excl := it.bound == exclusive
					a, b := &it.hi, &k
					if excl {
						a, b = b, a
					}
					past = lessWords(a, b) != excl
				} else {
					c := k.Cmp(it.hi)
					past = c > 0 || c == 0 && it.bound == exclusive
				}
				if past {
					it.depth = 0
					var zero K
					return zero, false
				}
			}
			it.pos[d]++
			if !nd.leaf() {
				it.pushLeft(nd.children[i+1])
			}
			return k, true
		}
		it.depth--
	}
	var zero K
	return zero, false
}
