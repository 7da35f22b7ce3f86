// Package btree implements the specialized in-memory B-tree used to store
// relations, modelled on Soufflé's Datalog-enabled B-tree (Jordan et al.,
// PPoPP 2019; paper §2).
//
// The tree is generic over its key type. The engine instantiates it with
// fixed-arity tuple types ([1]uint32 .. [16]uint32 wrappers defined in
// internal/relation), so the Go compiler generates a distinct instantiation
// per arity with a fixed-trip-count comparison loop — the Go analog of the
// paper's C++ template specialization, recovered for the interpreter through
// the arity factory (the de-specialization of §3).
//
// Datalog evaluation mostly inserts, tests membership, enumerates, and
// clears; deletion (remove.go) exists only for the incremental-retraction
// path and runs outside scan loops, so the hot structure stays simple and
// fast. All mutating operations require external synchronization; read-only
// operations (Contains, iteration) may run concurrently with each other.
package btree

// Key is the constraint for tree keys: a comparable value with a total
// lexicographic order. Cmp returns <0, 0, or >0. Hash mixes every bit of the
// key into the top bits of its result; the writer's duplicate cache
// (dedup.go) picks a slot by them.
type Key[K any] interface {
	comparable
	Cmp(K) int
	Hash() uint64
}

// degree is the minimum branching factor (CLRS t). Every node except the
// root holds between degree-1 and 2*degree-1 keys. 8 gives 15-key nodes:
// 60-240 bytes of keys per node for arities 1-16, a good fit for a few
// cache lines.
const degree = 8

const maxKeys = 2*degree - 1

// maxHeight bounds the height of every tree, and so the depth of an
// iterator's traversal stack (iter.go). Every node but the root holds at
// least degree-1 keys, so a tree of height h holds at least
// 2*degree^(h-1) - 1 keys: height 17 would take 2*8^16 - 1 ≈ 5.6e14 keys, more
// than a 48-bit address space can hold at 4 bytes each.
const maxHeight = 16

type node[K Key[K]] struct {
	keys     [maxKeys]K
	n        int8
	children []*node[K] // nil for leaves; len n+1 otherwise
}

func (nd *node[K]) leaf() bool { return nd.children == nil }

// find returns the first index i with keys[i] >= k, and whether keys[i] == k.
func (nd *node[K]) find(k K) (int, bool) {
	lo, hi := 0, int(nd.n)
	for lo < hi {
		mid := (lo + hi) / 2
		if nd.keys[mid].Cmp(k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < int(nd.n) && nd.keys[lo] == k
}

// Tree is an ordered set of K. The zero value is an empty tree.
//
// Like the paper's B-tree, the tree keeps an operation hint for its writer:
// last is the leaf the previous Insert ended in. Datalog inserts arrive in
// near-sorted runs, so the next key usually belongs to the same leaf, and
// Insert tries it before descending from the root. In front of the hint sits
// the writer's duplicate cache (dedup.go), allocated once the tree has
// answered enough duplicates by descending. Reads touch neither, so
// concurrent readers still share the tree; a reader keeps its own finger
// (Hint, hint.go), which gen invalidates.
type Tree[K Key[K]] struct {
	root *node[K]
	size int
	last *node[K]
	// lastMax records that last is the rightmost leaf, so that it also takes
	// keys above its own: an ascending run of fresh keys appends there. Only
	// a descending Insert splits leaves, and it sets last and lastMax anew.
	lastMax bool
	// dups counts the duplicates Insert found by descending since the last
	// Clear or disarm while cache is nil; at dedupSlots<<colds of them the
	// cache is armed. colds counts the cold windows (dedup.go) since the
	// last Clear, so that a tree whose cache never pays arms ever more
	// rarely. A disarmed cache waits in spare, so that a tree whose windows
	// alternate between cold and warm does not allocate at every arming.
	dups         int
	colds        uint8
	cache, spare *dedup[K]
	// gen counts the operations that detach nodes (Clear, Swap, Remove): a
	// reader's Hint is sound only within the generation it was recorded in.
	gen uint64
}

// New returns an empty tree.
func New[K Key[K]]() *Tree[K] { return &Tree[K]{} }

// Size reports the number of keys stored.
func (t *Tree[K]) Size() int { return t.size }

// Empty reports whether the tree holds no keys.
func (t *Tree[K]) Empty() bool { return t.size == 0 }

// Clear removes all keys.
func (t *Tree[K]) Clear() {
	t.root = nil
	t.size = 0
	t.last = nil
	t.dups, t.colds = 0, 0
	t.gen++
	if t.cache != nil {
		t.cache.clear()
	}
}

// Swap exchanges the contents of two trees in O(1). The duplicate caches
// describe the contents, so they move with them; readers' hints into
// either tree are invalidated.
func (t *Tree[K]) Swap(o *Tree[K]) {
	t.gen++
	o.gen++
	t.root, o.root = o.root, t.root
	t.size, o.size = o.size, t.size
	t.last, o.last = nil, nil
	t.dups, o.dups = o.dups, t.dups
	t.colds, o.colds = o.colds, t.colds
	t.cache, o.cache = o.cache, t.cache
}

// cover looks k up in the non-empty node nd alone. That decides k for the
// whole tree when nd covers k (keys[0] <= k <= keys[n-1]), since a subtree
// holds a contiguous run of the tree's keys. c is where k falls: below the
// node (<0), above it (>0, with i = n), or covered (0), when i is k's
// position (in an inner node, the child to descend into) and found whether
// it is there. The bounds are tested first, so a key outside the node costs
// one or two comparisons.
func (nd *node[K]) cover(k K) (i int, found bool, c int) {
	n := int(nd.n)
	switch hi := k.Cmp(nd.keys[n-1]); {
	case hi > 0:
		return n, false, 1
	case hi == 0:
		return n - 1, true, 0
	}
	switch lo := k.Cmp(nd.keys[0]); {
	case lo < 0:
		return 0, false, -1
	case lo == 0:
		return 0, true, 0
	}
	i, found = nd.find(k)
	return i, found, 0
}

// Contains reports whether k is in the set.
func (t *Tree[K]) Contains(k K) bool { return t.ContainsHint(k, nil) }

// Insert adds k to the set, reporting whether it was newly added. An armed
// duplicate cache answers first: a hit is a duplicate. Then it tries the
// leaf the previous Insert ended in: if that leaf covers k (or is the
// rightmost leaf and k lies above it), it holds k already or, when it has
// room, takes k directly.
func (t *Tree[K]) Insert(k K) bool {
	if c := t.cache; c != nil {
		s := c.at(k)
		if s.epoch == c.epoch && s.key == k {
			c.hits++
			return false
		}
		// k is in the tree once the insert below returns, found or added.
		s.key, s.epoch = k, c.epoch
		if c.miss() {
			t.cache, t.spare, t.dups = nil, c, 0
			t.colds = min(t.colds+1, maxColds)
		}
	}
	if nd := t.last; nd != nil {
		i, found, c := nd.cover(k)
		if found {
			return false
		}
		if int(nd.n) < maxKeys && (c == 0 || c > 0 && t.lastMax) {
			nd.insertAt(i, k)
			t.size++
			return true
		}
	}
	if t.root == nil {
		t.root = &node[K]{}
		t.root.keys[0] = k
		t.root.n = 1
		t.size = 1
		t.last, t.lastMax = t.root, true
		return true
	}
	if int(t.root.n) == maxKeys {
		// Preemptive root split.
		r := &node[K]{children: make([]*node[K], 1, 2*degree)}
		r.children[0] = t.root
		r.splitChild(0)
		t.root = r
	}
	if t.insertNonFull(t.root, k) {
		t.size++
		return true
	}
	if t.cache == nil {
		if t.dups++; t.dups >= dedupSlots[K]()<<t.colds {
			t.arm()
		}
	}
	return false
}

// InsertAll adds every key in keys, reporting how many were newly added. It
// is the bulk entry point of the staging-buffer merge path: the relation
// layer batches encoded keys so one call amortizes its dispatch over the
// batch.
func (t *Tree[K]) InsertAll(keys []K) int {
	added := 0
	for _, k := range keys {
		if t.Insert(k) {
			added++
		}
	}
	return added
}

// splitChild splits the full child at index i of nd, lifting its median key
// into nd. nd must not be full.
func (nd *node[K]) splitChild(i int) {
	child := nd.children[i]
	right := &node[K]{}
	right.n = degree - 1
	copy(right.keys[:], child.keys[degree:])
	if !child.leaf() {
		right.children = make([]*node[K], degree, 2*degree)
		copy(right.children, child.children[degree:])
		child.children = child.children[:degree]
	}
	median := child.keys[degree-1]
	var zero K
	for j := degree - 1; j < maxKeys; j++ {
		child.keys[j] = zero
	}
	child.n = degree - 1

	nd.children = append(nd.children, nil)
	copy(nd.children[i+2:], nd.children[i+1:])
	nd.children[i+1] = right
	copy(nd.keys[i+1:], nd.keys[i:int(nd.n)])
	nd.keys[i] = median
	nd.n++
}

// insertAt inserts k at position i of a non-full leaf.
func (nd *node[K]) insertAt(i int, k K) {
	copy(nd.keys[i+1:], nd.keys[i:int(nd.n)])
	nd.keys[i] = k
	nd.n++
}

// insertNonFull descends from nd to the leaf k belongs in, splitting full
// children on the way, and inserts k there. The leaf it ends in, also for a
// duplicate found in a leaf, becomes the writer hint.
func (t *Tree[K]) insertNonFull(nd *node[K], k K) bool {
	rightmost := true
	for {
		i, ok := nd.find(k)
		if nd.leaf() {
			t.last, t.lastMax = nd, rightmost
			if ok {
				return false
			}
			nd.insertAt(i, k)
			return true
		}
		if ok {
			return false
		}
		if int(nd.children[i].n) == maxKeys {
			nd.splitChild(i)
			// The lifted median may equal k or change which child k goes to.
			if c := nd.keys[i].Cmp(k); c == 0 {
				return false
			} else if c < 0 {
				i++
			}
		}
		rightmost = rightmost && i == int(nd.n)
		nd = nd.children[i]
	}
}

// ForEach calls fn on every key in ascending order until fn returns false.
func (t *Tree[K]) ForEach(fn func(K) bool) {
	forEach(t.root, fn)
}

func forEach[K Key[K]](nd *node[K], fn func(K) bool) bool {
	if nd == nil {
		return true
	}
	if nd.leaf() {
		for i := 0; i < int(nd.n); i++ {
			if !fn(nd.keys[i]) {
				return false
			}
		}
		return true
	}
	for i := 0; i < int(nd.n); i++ {
		if !forEach(nd.children[i], fn) {
			return false
		}
		if !fn(nd.keys[i]) {
			return false
		}
	}
	return forEach(nd.children[nd.n], fn)
}
