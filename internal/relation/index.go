// Package relation implements the de-specialization layer of the paper (§3):
// it wraps the specialized data structures (internal/btree, internal/brie,
// internal/eqrel) behind dynamic adapters so a virtual execution environment
// can use them, after shrinking their specialization space to
// {representation × arity}:
//
//   - all lexicographic orders are reduced to the natural one by re-encoding
//     tuples on insert (tuple.Order),
//   - all element types are reduced to 32-bit words (internal/value),
//   - the remaining {representation × arity} space is small enough to
//     pre-instantiate: a generated factory covers arities 0..16 (Fig 7).
//
// Two access paths exist, matching the paper's §4.1 ablation:
//
//   - the *dynamic adapter* path: every operation goes through the Index
//     interface with []Value tuples, and scans go through a 128-entry
//     buffered iterator that amortizes interface-call overhead (§3);
//   - the *static* path: the interpreter's generated specialized
//     instructions type-assert the concrete tree out of the adapter and
//     operate on it with fixed-arity array tuples and concrete iterators
//     (§4.1), paying no per-tuple interface dispatch.
package relation

import (
	"fmt"
	"slices"

	"sti/internal/tuple"
	"sti/internal/value"
)

// Rep identifies the data-structure implementation backing an index.
type Rep uint8

// The index representations in the engine's portfolio (paper §2).
const (
	BTree Rep = iota
	Brie
	EqRel
	Legacy // B-tree with a runtime-comparator (the legacy interpreter's store, §5.1)
	// Persist is an LSM table (internal/store) keyed by the order-preserving
	// byte codec: a sixth representation that slots in with zero interpreter
	// changes because every access crosses the dynamic adapter. It is an
	// exhibit measured by perfbench, not a production tier — no engine
	// configuration builds it (see Tier).
	Persist
)

// String returns the source-language spelling of the representation.
func (r Rep) String() string {
	switch r {
	case BTree:
		return "btree"
	case Brie:
		return "brie"
	case EqRel:
		return "eqrel"
	case Legacy:
		return "legacy"
	case Persist:
		return "persist"
	default:
		return fmt.Sprintf("rep(%d)", uint8(r))
	}
}

// MaxArity is the largest relation arity with pre-instantiated specialized
// structures. The paper observed up to 16 in practice (§3).
const MaxArity = 16

// Iterator enumerates tuples. Next returns ok=false when exhausted. The
// yielded slice may be reused by subsequent Next calls on the same iterator;
// it remains valid until then.
type Iterator interface {
	Next() (tuple.Tuple, bool)
}

// batcher is the wide-call interface that the buffered iterator uses to pull
// many tuples per dynamic dispatch (paper §3: "one virtual call ... for
// every 128 read requests"). dst slots are fully-allocated tuples that the
// implementation fills in place.
type batcher interface {
	nextBatch(dst []tuple.Tuple) int
}

// Index is the dynamic adapter interface over a de-specialized data
// structure (paper Fig 7): the core every store in the portfolio has and every
// per-tuple dynamic opcode calls. Tuples cross this interface in *encoded*
// (index) order; callers that need source order decode with Order().Decode, or
// avoid decoding entirely via static reordering (§4.2). The tuple width is
// len(Order()); the representation is a fact of the Relation, not of its
// indexes.
//
// What only some stores can do is not here but in the capabilities below.
// Nothing on the interface is telemetry: counting is countedIndex, a wrapper
// Relation.AttachMetrics installs only when a collector is attached.
//
//	              BulkInserter     Deleter        Partitioner       Ranger       walker
//	btree         tree bulk load   yes            separator keys    tree range   stack iterator
//	brie          trie bulk load   yes            -                 -            -
//	eqrel         pair bulk load   -              -                 -            -
//	nullary       -                yes            -                 -            -
//	legacy        -                yes            -                 tree range   -
//	persist       -                yes            sampled keys      -            -
//	shardedIndex  one per shard    yes            shard boundaries  per shard    -
//	countedIndex  as wrapped       iff wrapped    as wrapped        as wrapped   - (counts Scan)
//	without it    loop on Insert   SUBTRACT is    one partition:    the prefix   the buffered
//	                               refused        the full scan     scan         scan
type Index interface {
	// Order is the lexicographic order this index maintains, as a
	// permutation from source positions to encoded positions.
	Order() tuple.Order

	// Insert adds a tuple given in source order, reporting whether it was
	// newly added.
	Insert(t tuple.Tuple) bool
	// Contains tests membership of a tuple given in source order.
	Contains(t tuple.Tuple) bool
	// ContainsEncoded tests membership of a tuple given in encoded order.
	ContainsEncoded(t tuple.Tuple) bool
	// Size is the number of stored tuples.
	Size() int
	// Clear removes all tuples.
	Clear()
	// SwapContents exchanges the stored tuples with another index of the
	// same structure and order. It panics otherwise: swapping mismatched
	// indexes is an engine bug, not a user error.
	SwapContents(other Index)

	// Scan enumerates all tuples in encoded lexicographic order.
	Scan() Iterator
	// PrefixScan enumerates, in encoded lexicographic order, tuples whose
	// first k encoded elements equal pattern[0:k].
	PrefixScan(pattern tuple.Tuple, k int) Iterator
	// AnyMatch reports whether at least one tuple matches the first k
	// encoded elements of pattern (k == 0 means "relation non-empty").
	AnyMatch(pattern tuple.Tuple, k int) bool

	// impl exposes the concrete specialized structure (e.g. a
	// *btree.Tree[Tup3]) to the generated static instructions.
	impl() any
}

// The capabilities are looked up once — when a Relation is built, when the
// tree generator binds a node — never inside a per-tuple loop.

// BulkInserter is the capability of stores with a bulk load cheaper than
// repeated Insert: the merge entry point of the staging-buffer path, one
// dynamic dispatch for a whole batch.
type BulkInserter interface {
	// InsertAll inserts count source-order tuples packed back to back in
	// flat (len(flat) == count*arity), reporting how many were newly added.
	InsertAll(flat []value.Value, count int) int
}

// Deleter is the capability of stores that can remove single tuples. The
// union-find behind eqrel has no per-pair removal, so it lacks it; the tree
// generator refuses a SUBTRACT whose target does (Relation.Deletable).
type Deleter interface {
	// Delete removes a tuple given in source order, reporting whether it was
	// present. It runs only between scans (under the engine's write
	// section), so implementations may restructure freely; iterators
	// obtained before a Delete are invalidated.
	Delete(t tuple.Tuple) bool
}

// Partitioner is the capability of stores that can split a full scan for
// parallel evaluation.
type Partitioner interface {
	// PartitionScan returns up to n iterators covering disjoint,
	// collectively exhaustive tuple ranges.
	PartitionScan(n int) []Iterator
}

// Ranger is the capability of ordered stores that can narrow a prefix search
// by an interval on the next encoded position: the range scan of a bounded
// search (ram.Bound, mapped to storage order by Bound.Keys).
type Ranger interface {
	// RangeScan enumerates, in encoded lexicographic order, tuples whose
	// first k < arity encoded elements equal pattern[0:k] and whose element
	// k lies in [lo, hi].
	RangeScan(pattern tuple.Tuple, k int, lo, hi value.Value) Iterator
}

// RangeScan is idx's own range scan, or the prefix scan that fallback
// stores answer with instead: a superset of the range, which is enough
// because bounded searches keep their comparison as a filter.
func RangeScan(idx Index, pattern tuple.Tuple, k int, lo, hi value.Value) Iterator {
	if r, ok := idx.(Ranger); ok {
		return r.RangeScan(pattern, k, lo, hi)
	}
	return idx.PrefixScan(pattern, k)
}

// walker is the capability of stores that can run a search to its end
// without the buffered iterator: the B-tree adapter drives a stack iterator
// (btree.Iter) and decodes each key into the visitor's slot, so its walk
// allocates nothing.
type walker interface {
	walk(prefix tuple.Tuple, k int, v Visitor)
}

// Visitor receives the tuples of a Walk in source order. Slot returns the
// arity-wide tuple the walk decodes the next tuple into; Visit is then called
// with it and returns false to end the walk. The tuple is the visitor's own,
// so nothing crosses the walk that it would have to allocate.
type Visitor interface {
	Slot() tuple.Tuple
	Visit(t tuple.Tuple) bool
}

// Walk runs idx's search on the first k encoded elements of prefix (every
// tuple when k is 0) until it ends or v stops it: idx's own walk, or the
// buffered scan decoded into v's slots in stores without one.
func Walk(idx Index, prefix tuple.Tuple, k int, v Visitor) {
	if w, ok := idx.(walker); ok {
		w.walk(prefix, k, v)
		return
	}
	var it Iterator
	if k == 0 {
		it = idx.Scan()
	} else {
		it = idx.PrefixScan(prefix, k)
	}
	order := idx.Order()
	for {
		t, ok := it.Next()
		if !ok {
			return
		}
		s := v.Slot()
		order.Decode(s, t)
		if !v.Visit(s) {
			return
		}
	}
}

// bulkInserterOf is idx's own bulk load, or the one loop-insert fallback.
func bulkInserterOf(idx Index) BulkInserter {
	if b, ok := idx.(BulkInserter); ok {
		return b
	}
	return loopInserter{idx}
}

type loopInserter struct{ Index }

func (l loopInserter) InsertAll(flat []value.Value, count int) int {
	arity, added := len(l.Order()), 0
	for i := 0; i < count; i++ {
		if l.Insert(flat[i*arity : (i+1)*arity]) {
			added++
		}
	}
	return added
}

// PartitionerOf is idx's own scan split, or the one single-partition fallback.
func PartitionerOf(idx Index) Partitioner {
	if p, ok := idx.(Partitioner); ok {
		return p
	}
	return singlePartition{idx}
}

type singlePartition struct{ Index }

func (s singlePartition) PartitionScan(int) []Iterator { return []Iterator{s.Scan()} }

// swapPeer returns other as an index of a's own structure and order, the only
// kind SwapContents accepts.
func swapPeer[T Index](a T, other Index) T {
	o, ok := other.(T)
	if !ok || !slices.Equal(a.Order(), o.Order()) {
		panic(fmt.Sprintf("relation: swap of incompatible indexes (%T %v and %T %v)", a, a.Order(), other, other.Order()))
	}
	return o
}

// Impls returns the concrete specialized data structures behind idx for the
// interpreter's specialized instructions — one per shard, so a single one for
// an unsharded index — and the encoded position of the partition key the
// shards are hashed on (-1 when unsharded).
func Impls(idx Index) (stores []any, keyEnc int) {
	s, ok := idx.(*shardedIndex)
	if !ok {
		return []any{idx.impl()}, -1
	}
	for _, sub := range s.subs {
		stores = append(stores, sub.impl())
	}
	return stores, s.keyEnc
}

// Impl is Impls for the backends that never shard (closure compiler,
// synthesized programs): the one store of an unsharded index.
func Impl(idx Index) any { return idx.impl() }

// BufferSize is the batch width of the buffered iterator (paper §3).
const BufferSize = 128

// buffered amortizes dynamic-dispatch cost: one nextBatch interface call
// refills BufferSize tuples. Returned tuples point into the buffer and stay
// valid until the buffer is next refilled, i.e. for at least BufferSize
// subsequent Next calls — long enough for any nested-loop consumer that
// reads the tuple before advancing this iterator again.
type buffered struct {
	src   batcher
	slots []tuple.Tuple
	n     int // filled
	i     int // next to yield
	done  bool
}

// newBuffered wraps src in a BufferSize-entry buffer for tuples of the given
// arity.
func newBuffered(src batcher, arity int) *buffered {
	b := &buffered{src: src, slots: make([]tuple.Tuple, BufferSize)}
	backing := make([]value.Value, BufferSize*arity)
	for i := range b.slots {
		b.slots[i] = backing[i*arity : (i+1)*arity : (i+1)*arity]
	}
	return b
}

func (b *buffered) Next() (tuple.Tuple, bool) {
	if b.i >= b.n {
		if b.done {
			return nil, false
		}
		b.n = b.src.nextBatch(b.slots)
		b.i = 0
		if b.n < len(b.slots) {
			b.done = true
		}
		if b.n == 0 {
			return nil, false
		}
	}
	t := b.slots[b.i]
	b.i++
	return t, true
}

// emptyIter is an Iterator with no tuples.
type emptyIter struct{}

func (emptyIter) Next() (tuple.Tuple, bool) { return nil, false }
