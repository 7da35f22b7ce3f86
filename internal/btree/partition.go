package btree

// SeparatorKeys returns up to max-1 keys that split the tree into roughly
// equal key ranges, taken from the highest levels of the tree. The returned
// keys are in ascending order. An empty result means the tree is too small
// to split.
func (t *Tree[K]) SeparatorKeys(max int) []K {
	if t.root == nil || max <= 1 {
		return nil
	}
	keys := collectSeparators(t.root, max)
	if len(keys) > max-1 {
		// Thin out evenly.
		step := float64(len(keys)) / float64(max)
		out := make([]K, 0, max-1)
		for i := 1; i < max; i++ {
			out = append(out, keys[int(float64(i)*step)-0])
		}
		return out
	}
	return keys
}

// collectSeparators gathers node keys breadth-first until enough separators
// exist.
func collectSeparators[K Key[K]](root *node[K], want int) []K {
	level := []*node[K]{root}
	var keys []K
	for len(level) > 0 {
		keys = keys[:0]
		var next []*node[K]
		for _, nd := range level {
			for i := 0; i < int(nd.n); i++ {
				keys = append(keys, nd.keys[i])
			}
			if !nd.leaf() {
				next = append(next, nd.children...)
			}
		}
		if len(keys) >= want-1 || len(next) == 0 {
			break
		}
		level = next
	}
	// keys from one level are collected left-to-right and are sorted.
	return keys
}

// SeekBefore returns an iterator over keys k with lo <= k < hi; a nil lo
// means from the beginning, a nil hi means unbounded above. It underpins
// partitioned parallel scans. Neither pointer is retained.
func (t *Tree[K]) SeekBefore(lo *K, hi *K) Iter[K] {
	it := Iter[K]{words: t.words}
	if lo == nil {
		it.pushLeft(t.root)
	} else {
		it.seek(t.root, *lo)
	}
	if hi != nil {
		it.hi, it.bound = *hi, exclusive
	}
	return it
}
