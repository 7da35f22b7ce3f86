package btree

// Hint is a reader's finger into a tree (paper §2; Jordan et al., PPoPP
// 2019): the leaf that decided an earlier ContainsHint made through it, and
// that leaf's parent. A join probes an index with keys that arrive
// near-sorted, so the next key usually lies in the same leaf or under its
// parent; ContainsHint tests those two nodes and descends from the first
// that covers the key. Only they are tested: a lookup neither covers falls
// back to the root after at most four comparisons. Scattered probes, which
// the finger never decides, would pay those comparisons on every lookup, so
// after coldRun lookups in a row that it did not decide, the finger is
// tried only on every coldRun-th; the first one it decides resumes it.
//
// A hint belongs to its caller, one per lookup site and reader: concurrent
// readers each hold their own, and the tree keeps no reader state. The zero
// value is a valid hint that starts from the root.
//
// A subtree holds a contiguous run of the tree's keys, so a node that is
// still attached and covers k (keys[0] <= k <= keys[n-1]) decides k. Insert
// only splits nodes, and a split node keeps its lower half and stays
// attached, so an old finger stays sound. Clear, Swap and Remove detach
// nodes; each bumps the tree's generation, and a hint recorded on another
// tree or generation is emptied and starts from the root. Until then it
// keeps at most one bottom inner node and its leaves of a detached tree
// alive: a lookup decided in an inner node leaves the finger where it was.
type Hint[K Key[K]] struct {
	tree     *Tree[K]
	gen      uint64
	leaf, up *node[K] // up is nil when leaf was the root
	misses   uint32   // lookups since the finger last decided one
}

const coldRun = 8

// ContainsHint reports whether k is in the set, starting from the finger h
// and leaving in it the leaf that decided k and that leaf's parent. A nil h
// starts from the root and records nothing (Contains).
func (t *Tree[K]) ContainsHint(k K, h *Hint[K]) bool {
	nd, up := t.root, (*node[K])(nil)
	if h != nil {
		if h.tree != t || h.gen != t.gen {
			*h = Hint[K]{tree: t, gen: t.gen}
		}
		if h.misses++; h.misses <= coldRun || h.misses%coldRun == 0 {
			for _, p := range [2]*node[K]{h.leaf, h.up} {
				if p == nil {
					break
				}
				if j, found, c := p.cover(k); c == 0 {
					h.misses = 0
					if found || p.leaf() {
						return found
					}
					nd, up = p.children[j], p
					break
				}
			}
		}
	}
	for nd != nil {
		i, ok := nd.find(k)
		if nd.leaf() {
			if h != nil {
				h.leaf, h.up = nd, up
			}
			return ok
		}
		if ok {
			return true
		}
		nd, up = nd.children[i], nd
	}
	return false
}
