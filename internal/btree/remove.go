package btree

// Remove deletes k from the tree, reporting whether it was present. It is
// the textbook CLRS B-tree deletion: while descending, every child entered
// is first refilled to at least degree keys (borrowing from a sibling or
// merging with one), so the removal itself never needs to walk back up.
// Iterators obtained before a Remove are invalidated, like for Insert, and
// so are the writer hint and every reader's Hint (by the generation): the
// refills merge nodes even when k is absent. Of the duplicate cache only k's
// slot can name k, so only it is invalidated.
func (t *Tree[K]) Remove(k K) bool {
	t.last = nil
	t.gen++
	if t.cache != nil {
		t.cache.at(k).epoch = 0
	}
	if t.root == nil {
		return false
	}
	removed := t.remove(t.root, k)
	// An emptied internal root collapses onto its only child, also when k
	// was absent (the refills on the way down may have merged the root's
	// last two children); an emptied leaf root leaves the empty tree. So
	// every attached node holds a key, which a Hint's cover test relies on.
	if t.root.n == 0 {
		if t.root.leaf() {
			t.root = nil
		} else {
			t.root = t.root.children[0]
		}
	}
	if removed {
		t.size--
	}
	return removed
}

func (t *Tree[K]) remove(nd *node[K], k K) bool {
	for {
		i, found := nd.find(k, t.words)
		if nd.leaf() {
			if !found {
				return false
			}
			nd.removeFromLeaf(i)
			return true
		}
		if found {
			t.removeFromInternal(nd, i)
			return true
		}
		// Refill the child before descending so it can afford a removal.
		if int(nd.children[i].n) < degree {
			i = nd.fill(i)
			// fill may have moved k into nd (rotation) or merged it down;
			// re-search this node rather than assuming the old position.
			var foundHere bool
			i, foundHere = nd.find(k, t.words)
			if foundHere {
				t.removeFromInternal(nd, i)
				return true
			}
			if nd.leaf() { // cannot happen: fill never turns an internal node into a leaf
				return false
			}
		}
		nd = nd.children[i]
	}
}

// removeFromLeaf deletes keys[i] from a leaf, zeroing the vacated slot so
// stale keys do not pin memory (mirroring splitChild).
func (nd *node[K]) removeFromLeaf(i int) {
	copy(nd.keys[i:], nd.keys[i+1:int(nd.n)])
	var zero K
	nd.keys[nd.n-1] = zero
	nd.n--
}

// removeFromInternal deletes keys[i] of an internal node by replacing it
// with its in-order predecessor or successor (whichever child can afford to
// lose a key) and recursing; when neither can, the two children merge around
// the key and the removal continues in the merged child.
func (t *Tree[K]) removeFromInternal(nd *node[K], i int) {
	k := nd.keys[i]
	switch {
	case int(nd.children[i].n) >= degree:
		pred := maxKey(nd.children[i])
		nd.keys[i] = pred
		t.remove(nd.children[i], pred)
	case int(nd.children[i+1].n) >= degree:
		succ := minKey(nd.children[i+1])
		nd.keys[i] = succ
		t.remove(nd.children[i+1], succ)
	default:
		nd.mergeChildren(i)
		t.remove(nd.children[i], k)
	}
}

func maxKey[K Key[K]](nd *node[K]) K {
	for !nd.leaf() {
		nd = nd.children[nd.n]
	}
	return nd.keys[nd.n-1]
}

func minKey[K Key[K]](nd *node[K]) K {
	for !nd.leaf() {
		nd = nd.children[0]
	}
	return nd.keys[0]
}

// fill brings children[i] up to at least degree keys and returns the index
// the descent should continue through (merging with the left sibling shifts
// the child one slot left).
func (nd *node[K]) fill(i int) int {
	switch {
	case i > 0 && int(nd.children[i-1].n) >= degree:
		nd.borrowFromLeft(i)
	case i < int(nd.n) && int(nd.children[i+1].n) >= degree:
		nd.borrowFromRight(i)
	case i > 0:
		nd.mergeChildren(i - 1)
		i--
	default:
		nd.mergeChildren(i)
	}
	return i
}

// borrowFromLeft rotates the rightmost key of children[i-1] through the
// separator into children[i].
func (nd *node[K]) borrowFromLeft(i int) {
	child, left := nd.children[i], nd.children[i-1]
	copy(child.keys[1:int(child.n)+1], child.keys[:int(child.n)])
	child.keys[0] = nd.keys[i-1]
	if !child.leaf() {
		child.children = append(child.children, nil)
		copy(child.children[1:], child.children)
		child.children[0] = left.children[left.n]
		left.children = left.children[:left.n]
	}
	nd.keys[i-1] = left.keys[left.n-1]
	var zero K
	left.keys[left.n-1] = zero
	left.n--
	child.n++
}

// borrowFromRight rotates the leftmost key of children[i+1] through the
// separator into children[i].
func (nd *node[K]) borrowFromRight(i int) {
	child, right := nd.children[i], nd.children[i+1]
	child.keys[child.n] = nd.keys[i]
	if !child.leaf() {
		child.children = append(child.children, right.children[0])
		copy(right.children, right.children[1:])
		right.children = right.children[:right.n]
	}
	nd.keys[i] = right.keys[0]
	copy(right.keys[:], right.keys[1:int(right.n)])
	var zero K
	right.keys[right.n-1] = zero
	right.n--
	child.n++
}

// mergeChildren folds children[i+1] and the separator keys[i] into
// children[i]. Both children must hold degree-1 keys.
func (nd *node[K]) mergeChildren(i int) {
	child, right := nd.children[i], nd.children[i+1]
	child.keys[child.n] = nd.keys[i]
	copy(child.keys[int(child.n)+1:], right.keys[:int(right.n)])
	if !child.leaf() {
		child.children = append(child.children, right.children...)
	}
	child.n += right.n + 1

	copy(nd.keys[i:], nd.keys[i+1:int(nd.n)])
	var zero K
	nd.keys[nd.n-1] = zero
	copy(nd.children[i+1:], nd.children[i+2:])
	nd.children = nd.children[:nd.n]
	nd.n--
}
