package btree

import (
	"math/bits"
	"unsafe"
)

// dedup is the writer's duplicate cache: a direct-mapped table of keys the
// tree recently inserted or found, probed by Insert before the leaf hint. An
// entry asserts only "this key is in the tree", so a hit answers a duplicate
// with no tree access, and a miss or a stale entry costs the ordinary insert.
//
// Datalog joins derive most tuples many times (a self-join like
// aliased(a,b) :- vpt(a,h), vpt(b,h) repeats each pair once per shared h),
// and the repeats arrive in short ascending sweeps that restart for every
// outer tuple: the hinted leaf covers the sweep's start only, and a
// duplicate held in an inner node is out of every leaf's reach. The cache
// catches both.
//
// Only the writer touches it; reads never do, so concurrent readers still
// share the tree. Clear invalidates every entry in O(1) by bumping epoch:
// an entry is live only while its stamp equals the cache's epoch, which is
// never 0, the stamp of a slot never written. Remove invalidates the one
// slot its key can occupy.
//
// A cache that stops paying disarms itself: the probes are counted in
// windows of len(slots), and at the end of a window in which fewer than one
// probe in dedupColdShare hit, Insert takes the cache off the insert path
// (keeping its slots for the next arming) and counts duplicates towards
// arming again from zero. Sweeps of present keys too long for the cache to
// hold (each key comes back only after more others than it has slots) miss
// every probe, and the leaf hint answers them anyway.
type dedup[K Key[K]] struct {
	slots []slot[K]
	shift uint8 // 64 - log2(len(slots)): a hash's top bits pick the slot
	epoch uint32
	// hits and misses count the probes of the current window.
	hits, misses int
}

// dedupColdShare sets the hit share below which a window is cold: fewer
// than one hit in dedupColdShare probes.
const dedupColdShare = 8

type slot[K Key[K]] struct {
	key   K
	epoch uint32
}

// dedupBytes is the byte budget of an armed cache. A tree arms after
// answering as many duplicates by descending as its cache has slots, so
// the budget also sets how much duplicate work earns one; the sizing
// measurements are in EXPERIMENTS.md ("Duplicate cache").
const dedupBytes = 16 << 10

// dedupSlots is the number of slots of K's cache: the largest power of two
// whose slots fit the byte budget.
func dedupSlots[K Key[K]]() int {
	n := 1
	for 2*n*int(unsafe.Sizeof(slot[K]{})) <= dedupBytes {
		n *= 2
	}
	return n
}

func newDedup[K Key[K]]() *dedup[K] {
	n := dedupSlots[K]()
	return &dedup[K]{slots: make([]slot[K], n), shift: uint8(64 - bits.TrailingZeros(uint(n))), epoch: 1}
}

// arm puts a cache in front of the writer hint: the spare one, emptied,
// or a new one.
func (t *Tree[K]) arm() {
	if c := t.spare; c != nil {
		c.clear()
		c.hits, c.misses = 0, 0
		t.cache, t.spare = c, nil
		return
	}
	t.cache = newDedup[K]()
}

// at returns the one slot k can occupy.
func (c *dedup[K]) at(k K) *slot[K] {
	return &c.slots[k.Hash()>>c.shift]
}

// clear invalidates every entry. When the epoch wraps, the stamps are
// zeroed so that no entry written 2^32 epochs ago comes back to life.
func (c *dedup[K]) clear() {
	c.epoch++
	if c.epoch == 0 {
		clear(c.slots)
		c.epoch = 1
	}
}

// miss counts a probe that missed and reports whether it ended a cold
// window.
func (c *dedup[K]) miss() (cold bool) {
	c.misses++
	if n := c.hits + c.misses; n >= len(c.slots) {
		cold = c.hits*dedupColdShare < n
		c.hits, c.misses = 0, 0
	}
	return cold
}
