package relation

import (
	"fmt"
	"sync"

	"sti/internal/tuple"
	"sti/internal/value"
)

// Sharded relations hash-partition their tuples by one source column (the
// shard key) across N sub-indexes, so shard-parallel evaluation can run one
// semi-naive fixpoint per shard and exchange out-of-shard delta tuples at
// the existing staging-buffer merge barriers (Gilray et al., "Higher-Order,
// Data-Parallel Structured Deduction").
//
// The wrapper sits *behind* the de-specialized Index interface: every
// operation routes to the owning shard when the key is bound (point inserts,
// deletes, membership, prefix scans whose encoded prefix covers the key) and
// falls back to an order-preserving k-way merge over all shards otherwise.
// Because each shard is itself a sorted adapter (B-tree and brie both
// enumerate in encoded lexicographic order), the merged enumeration is
// byte-identical to the unsharded adapter's — sharding changes where tuples
// live, never what a reader observes.

// shardHashMul is Knuth's multiplicative hash constant (2^32 / phi). The
// shard of a key value is a multiplicative hash mod the shard count, which
// spreads the dense small integers the interner produces far better than a
// plain modulus.
const shardHashMul = 2654435761

// ShardOf returns the owning shard of a key value under n shards.
func ShardOf(v value.Value, n int) int {
	return int(uint32(v) * shardHashMul % uint32(n))
}

// shardStore is what a sharded index keeps per shard: a B-tree or brie
// adapter, bare or counted, all of which bulk-load and delete. Nothing else
// shards.
type shardStore interface {
	Index
	BulkInserter
	Deleter
}

// shardedIndex implements Index over n sub-adapters of identical
// representation and order. Tuples are placed by ShardOf of their key
// column; sub-adapter i holds exactly the tuples whose key hashes to i.
type shardedIndex struct {
	subs  []shardStore
	order tuple.Order
	// key is the shard key as a source-coordinate column; keyEnc is the same
	// column's position in encoded order (order[keyEnc] == key), used to
	// route encoded-order operations like PrefixScan.
	key    int
	keyEnc int
}

// newShardedIndex builds a sharded index of n sub-adapters. key is the
// source-coordinate shard column.
func newShardedIndex(rep Rep, order tuple.Order, n, key int) *shardedIndex {
	if n < 1 {
		panic(fmt.Sprintf("relation: sharded index needs at least 1 shard, got %d", n))
	}
	if key < 0 || key >= len(order) {
		panic(fmt.Sprintf("relation: shard key %d out of range for arity %d", key, len(order)))
	}
	s := &shardedIndex{order: order, key: key, keyEnc: -1}
	for p, src := range order {
		if src == key {
			s.keyEnc = p
			break
		}
	}
	if s.keyEnc < 0 {
		panic(fmt.Sprintf("relation: order %v does not place shard key %d", order, key))
	}
	for i := 0; i < n; i++ {
		s.subs = append(s.subs, NewIndex(rep, order).(shardStore))
	}
	return s
}

func (s *shardedIndex) Order() tuple.Order { return s.order }

// impl returns the wrapper itself: there is no single concrete tree behind a
// sharded index. Impls hands out the per-shard trees instead.
func (s *shardedIndex) impl() any { return s }

// shard returns the owning sub-index of a source-order tuple.
func (s *shardedIndex) shard(t tuple.Tuple) shardStore {
	return s.subs[ShardOf(t[s.key], len(s.subs))]
}

func (s *shardedIndex) Insert(t tuple.Tuple) bool { return s.shard(t).Insert(t) }
func (s *shardedIndex) Delete(t tuple.Tuple) bool { return s.shard(t).Delete(t) }
func (s *shardedIndex) Contains(t tuple.Tuple) bool {
	return s.shard(t).Contains(t)
}

func (s *shardedIndex) ContainsEncoded(t tuple.Tuple) bool {
	return s.subs[ShardOf(t[s.keyEnc], len(s.subs))].ContainsEncoded(t)
}

func (s *shardedIndex) InsertAll(flat []value.Value, count int) int {
	arity := len(s.order)
	if len(s.subs) == 1 {
		return s.subs[0].InsertAll(flat, count)
	}
	// Bucket tuples per shard so each sub-adapter still gets one bulk call.
	parts := make([][]value.Value, len(s.subs))
	for i := 0; i < count; i++ {
		t := flat[i*arity : (i+1)*arity]
		sh := ShardOf(t[s.key], len(s.subs))
		parts[sh] = append(parts[sh], t...)
	}
	added := 0
	for sh, p := range parts {
		if len(p) > 0 {
			added += s.subs[sh].InsertAll(p, len(p)/arity)
		}
	}
	return added
}

func (s *shardedIndex) Size() int {
	n := 0
	for _, sub := range s.subs {
		n += sub.Size()
	}
	return n
}

func (s *shardedIndex) Clear() {
	for _, sub := range s.subs {
		sub.Clear()
	}
}

func (s *shardedIndex) SwapContents(other Index) {
	o := swapPeer(s, other)
	if len(o.subs) != len(s.subs) || o.key != s.key {
		panic(fmt.Sprintf("relation: swap of sharded indexes partitioned %d-way on column %d and %d-way on %d", len(s.subs), s.key, len(o.subs), o.key))
	}
	for i := range s.subs {
		s.subs[i].SwapContents(o.subs[i])
	}
}

func (s *shardedIndex) Scan() Iterator {
	if len(s.subs) == 1 {
		return s.subs[0].Scan()
	}
	its := make([]Iterator, len(s.subs))
	for i, sub := range s.subs {
		its[i] = sub.Scan()
	}
	return newMergeIter(its)
}

func (s *shardedIndex) PrefixScan(pattern tuple.Tuple, k int) Iterator {
	return s.search(pattern, k, func(sub shardStore) Iterator { return sub.PrefixScan(pattern, k) })
}

func (s *shardedIndex) RangeScan(pattern tuple.Tuple, k int, lo, hi value.Value) Iterator {
	return s.search(pattern, k, func(sub shardStore) Iterator { return RangeScan(sub, pattern, k, lo, hi) })
}

// search runs scan on the shards that can hold tuples with the encoded
// prefix pattern[:k], merging their answers back into encoded order.
func (s *shardedIndex) search(pattern tuple.Tuple, k int, scan func(shardStore) Iterator) Iterator {
	if len(s.subs) == 1 {
		return scan(s.subs[0])
	}
	if s.keyEnc < k {
		// The encoded prefix binds the shard key: only one shard can hold
		// matches. This is the payoff of keying shards on the program's
		// most-bound column — the common inner-loop searches stay
		// shard-local instead of fanning out.
		return scan(s.subs[ShardOf(pattern[s.keyEnc], len(s.subs))])
	}
	its := make([]Iterator, len(s.subs))
	for i, sub := range s.subs {
		its[i] = scan(sub)
	}
	return newMergeIter(its)
}

func (s *shardedIndex) AnyMatch(pattern tuple.Tuple, k int) bool {
	if s.keyEnc < k {
		return s.subs[ShardOf(pattern[s.keyEnc], len(s.subs))].AnyMatch(pattern, k)
	}
	for _, sub := range s.subs {
		if sub.AnyMatch(pattern, k) {
			return true
		}
	}
	return false
}

// PartitionScan splits the scan along shard boundaries: with n >= #shards
// every shard becomes its own partition (the shape shard-parallel fixpoints
// rely on: worker i scans shard i), otherwise consecutive shards are chained
// round-robin into n partitions.
func (s *shardedIndex) PartitionScan(n int) []Iterator {
	if n <= 1 {
		return []Iterator{s.Scan()}
	}
	if n >= len(s.subs) {
		its := make([]Iterator, len(s.subs))
		for i, sub := range s.subs {
			its[i] = sub.Scan()
		}
		return its
	}
	its := make([]Iterator, n)
	for i := range its {
		var group []Iterator
		for sh := i; sh < len(s.subs); sh += n {
			group = append(group, s.subs[sh].Scan())
		}
		its[i] = &chainIter{its: group}
	}
	return its
}

// mergeIter is an order-preserving k-way merge over sorted encoded-order
// iterators. Each sub-iterator's head tuple stays valid until that iterator
// advances (the Iterator contract), and the merge only advances the
// sub-iterator whose head it yielded on the *next* Next call, so yielded
// tuples obey the same contract.
type mergeIter struct {
	its   []Iterator
	heads []tuple.Tuple
	last  int // sub-iterator whose head was yielded last, -1 initially
}

func newMergeIter(its []Iterator) *mergeIter {
	m := &mergeIter{its: its, heads: make([]tuple.Tuple, len(its)), last: -1}
	for i, it := range its {
		if t, ok := it.Next(); ok {
			m.heads[i] = t
		}
	}
	return m
}

func (m *mergeIter) Next() (tuple.Tuple, bool) {
	if m.last >= 0 {
		if t, ok := m.its[m.last].Next(); ok {
			m.heads[m.last] = t
		} else {
			m.heads[m.last] = nil
		}
		m.last = -1
	}
	best := -1
	for i, h := range m.heads {
		if h == nil {
			continue
		}
		if best < 0 || tuple.Compare(h, m.heads[best]) < 0 {
			best = i
		}
	}
	if best < 0 {
		return nil, false
	}
	m.last = best
	return m.heads[best], true
}

// chainIter concatenates iterators back to back.
type chainIter struct {
	its []Iterator
}

func (c *chainIter) Next() (tuple.Tuple, bool) {
	for len(c.its) > 0 {
		if t, ok := c.its[0].Next(); ok {
			return t, true
		}
		c.its = c.its[1:]
	}
	return nil, false
}

// --- relation-level sharding ---

// NewSharded creates a relation whose indexes are each hash-partitioned into
// the given number of shards on the given source column. Orders follow the
// same rules as New. Only B-tree and brie relations of at least one column
// shard.
func NewSharded(name string, rep Rep, arity int, orders []tuple.Order, shards, key int) *Relation {
	if arity == 0 || rep != BTree && rep != Brie {
		panic(fmt.Sprintf("relation %s: %v/arity-%d relations cannot shard", name, rep, arity))
	}
	r := &Relation{Name: name, arity: arity, rep: rep, shards: shards, shardKey: key}
	return r.build(orders, func(o tuple.Order) Index { return newShardedIndex(rep, o, shards, key) })
}

// Sharded reports whether the relation's indexes are hash-partitioned.
func (r *Relation) Sharded() bool { return r.shards > 0 }

// ShardCount reports the number of shards, or 0 for unsharded relations.
func (r *Relation) ShardCount() int { return r.shards }

// ShardKeyCol reports the source column tuples are partitioned on; it is
// meaningless (0) for unsharded relations.
func (r *Relation) ShardKeyCol() int { return r.shardKey }

// shardRouteMin is the routed-tuple count above which per-shard merges run
// on their own goroutines, mirroring parallelMergeMin for secondaries.
const shardRouteMin = 512

// InsertAllSharded merges staged per-worker buffers into a sharded relation:
// the cross-shard exchange step of shard-parallel evaluation. Tuples are
// routed to their owning shard by partition hash, then every shard merges
// its routed tuples independently (dedup against the shard's primary
// sub-index, fresh tuples propagated to the same shard of every secondary) —
// shards never touch each other's sub-indexes, so the per-shard merges run
// on their own goroutines without locks.
//
// bufs[w] is worker w's buffer (nil entries allowed). Returns the number of
// tuples newly added; routed[s] counts tuples owned by shard s (the skew
// signal); exchanged counts tuples that crossed shards — produced by worker
// w but owned by shard s != w mod shards, i.e. the delta-exchange volume
// when workers are aligned with shards.
func (r *Relation) InsertAllSharded(bufs []*StagingBuffer) (added int, routed []uint64, exchanged uint64) {
	primary, ok := r.indexes[0].(*shardedIndex)
	if !ok {
		panic(fmt.Sprintf("relation %s: InsertAllSharded on unsharded relation", r.Name))
	}
	shards := len(primary.subs)
	routed = make([]uint64, shards)
	parts := make([][]value.Value, shards)
	attempted := 0
	for w, b := range bufs {
		if b == nil || b.count == 0 {
			continue
		}
		if b.arity != r.arity {
			panic(fmt.Sprintf("relation %s: staged arity %d does not match arity %d", r.Name, b.arity, r.arity))
		}
		attempted += b.count
		home := w % shards
		for i := 0; i < b.count; i++ {
			t := b.Tuple(i)
			sh := ShardOf(t[primary.key], shards)
			routed[sh]++
			if sh != home {
				exchanged++
			}
			parts[sh] = append(parts[sh], t...)
		}
	}
	if attempted == 0 {
		if r.stats != nil {
			r.stats.CountBulk(0, 0)
		}
		return 0, routed, 0
	}
	freshCounts := make([]int, shards)
	merge := func(sh int) {
		flat := parts[sh]
		n := len(flat) / r.arity
		if n == 0 {
			return
		}
		sub := primary.subs[sh]
		// Dedup through the shard's primary, compacting fresh tuples to the
		// front of the routed slice so secondaries bulk-insert exactly the
		// fresh set.
		fresh := 0
		for i := 0; i < n; i++ {
			t := flat[i*r.arity : (i+1)*r.arity]
			if sub.Insert(t) {
				copy(flat[fresh*r.arity:], t)
				fresh++
			}
		}
		freshCounts[sh] = fresh
		if fresh == 0 {
			return
		}
		for _, idx := range r.indexes[1:] {
			idx.(*shardedIndex).subs[sh].InsertAll(flat[:fresh*r.arity], fresh)
		}
	}
	if attempted >= shardRouteMin && shards > 1 {
		var wg sync.WaitGroup
		for sh := 0; sh < shards; sh++ {
			if len(parts[sh]) == 0 {
				continue
			}
			wg.Add(1)
			go func(sh int) {
				defer wg.Done()
				merge(sh)
			}(sh)
		}
		wg.Wait()
	} else {
		for sh := 0; sh < shards; sh++ {
			merge(sh)
		}
	}
	for _, f := range freshCounts {
		added += f
	}
	if r.stats != nil {
		r.stats.CountBulk(attempted, added)
	}
	return added, routed, exchanged
}

// CheckShardLocal verifies the shard-local-writes invariant at runtime:
// every tuple in every shard of every index hashes to the shard holding it.
// It is O(size) and meant for tests and debug assertions, returning the
// first violation found or nil.
func (r *Relation) CheckShardLocal() error {
	for ii, idx := range r.indexes {
		s, ok := idx.(*shardedIndex)
		if !ok {
			if r.Sharded() {
				return fmt.Errorf("relation %s: index %d is not sharded", r.Name, ii)
			}
			continue
		}
		for sh, sub := range s.subs {
			it := sub.Scan()
			for t, ok := it.Next(); ok; t, ok = it.Next() {
				if got := ShardOf(t[s.keyEnc], len(s.subs)); got != sh {
					return fmt.Errorf("relation %s index %d: tuple %v owned by shard %d held by shard %d",
						r.Name, ii, t, got, sh)
				}
			}
		}
	}
	return nil
}
