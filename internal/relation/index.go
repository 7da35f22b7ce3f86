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

	"sti/internal/metrics"
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
// structure (paper Fig 7). Tuples cross this interface in *encoded* (index)
// order; callers that need source order decode with Order().Decode, or avoid
// decoding entirely via static reordering (§4.2).
type Index interface {
	// Arity is the tuple width.
	Arity() int
	// Rep is the backing implementation.
	Rep() Rep
	// Order is the lexicographic order this index maintains, as a
	// permutation from source positions to encoded positions.
	Order() tuple.Order

	// Insert adds a tuple given in source order, reporting whether it was
	// newly added.
	Insert(t tuple.Tuple) bool
	// InsertAll bulk-inserts count source-order tuples packed back to back
	// in flat (len(flat) == count*Arity()), reporting how many were newly
	// added. It is the merge entry point of the staging-buffer path: one
	// dynamic dispatch covers the whole batch instead of one per tuple.
	InsertAll(flat []value.Value, count int) int
	// Delete removes a tuple given in source order, reporting whether it was
	// present. It is the retraction entry point of delete propagation and
	// runs only between scans (under the engine's write section), so
	// implementations may restructure freely; iterators obtained before a
	// Delete are invalidated. EqRel indexes cannot delete (the union-find
	// has no per-pair removal) and panic; translation gates them out.
	Delete(t tuple.Tuple) bool
	// Contains tests membership of a tuple given in source order.
	Contains(t tuple.Tuple) bool
	// ContainsEncoded tests membership of a tuple given in encoded order.
	ContainsEncoded(t tuple.Tuple) bool
	// Size is the number of stored tuples.
	Size() int
	// Clear removes all tuples.
	Clear()
	// SwapContents exchanges the stored tuples with another index of the
	// same representation, arity, and order. It panics otherwise: swapping
	// mismatched indexes is an engine bug, not a user error.
	SwapContents(other Index)

	// Scan enumerates all tuples in encoded lexicographic order.
	Scan() Iterator
	// PrefixScan enumerates, in encoded lexicographic order, tuples whose
	// first k encoded elements equal pattern[0:k].
	PrefixScan(pattern tuple.Tuple, k int) Iterator
	// AnyMatch reports whether at least one tuple matches the first k
	// encoded elements of pattern (k == 0 means "relation non-empty").
	AnyMatch(pattern tuple.Tuple, k int) bool
	// PartitionScan splits a full scan into up to n independent iterators
	// covering disjoint, collectively exhaustive tuple ranges, for parallel
	// evaluation.
	PartitionScan(n int) []Iterator

	// impl exposes the concrete specialized structure (e.g. a
	// *btree.Tree[Tup3]) to the generated static instructions.
	impl() any

	// attachOps installs telemetry counters on the adapter. nil (the
	// default) disables counting; every adapter operation then pays one nil
	// check and nothing else. Counters only observe traffic that crosses
	// the dynamic adapter — the interpreter's static instructions bypass
	// the adapter (and its counters) by design.
	attachOps(*metrics.IndexOps)
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
