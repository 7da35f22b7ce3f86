// Package relation is the de-specialization layer (paper §3): the single
// Index interface the interpreter programs against, and the portfolio of
// concrete stores behind it — per-arity specialized B-trees, bries,
// union-find equivalence relations, a nullary flag, and the legacy store,
// one B-tree instantiation whose keys compare by a runtime-interpreted
// order. All lexicographic orders are reduced to the
// natural order by re-encoding tuples on insert (tuple.Order), and all
// element types are reduced to 32-bit words, so the concrete portfolio is
// exactly {structure × arity}.
//
// On top of the flat portfolio, sharded.go provides shardedIndex: a
// wrapper holding one concrete adapter per hash partition of a single key
// column. Key-bound operations route to the owning shard; key-unbound
// enumerations run an order-preserving k-way merge, so a sharded relation
// is observationally identical to an unsharded one. counted.go provides the
// other wrapper, countedIndex: the one place index operations are counted,
// built only when a telemetry collector is attached (internal/metrics).
//
// Index is a small core; what only some stores can do (bulk load, delete,
// split a scan) is a capability a Relation looks up once when it is built
// (index.go has the table).
package relation

import (
	"fmt"

	"sti/internal/metrics"
	"sti/internal/tuple"
	"sti/internal/value"
)

// Relation is a named set of tuples backed by one or more indexes, each
// maintaining a different lexicographic order so that every primitive search
// the program performs is a prefix search on some index (paper §2). Index 0
// is the primary index; insertions go to all indexes, and Size/Contains are
// answered by the primary.
type Relation struct {
	Name    string
	arity   int
	rep     Rep
	indexes []Index
	// bulk and del are the indexes' capabilities, looked up once by bind:
	// bulk[i] is index i's bulk load or the loop fallback; del holds every
	// index's Deleter, or is nil when some index has none.
	bulk  []BulkInserter
	del   []Deleter
	stats *metrics.RelationStats
	// shards/shardKey describe the hash partitioning of a sharded relation
	// (sharded.go); shards == 0 means unsharded.
	shards   int
	shardKey int
	// slot is the tuple InsertFrom and DeleteFrom decode their source into.
	// Both mutate r, so they never run beside another user of r, and one
	// slot per relation suffices.
	slot [MaxArity]value.Value
}

// New creates a relation with one index per given order. Orders must all
// have length arity; at least one order is required (the primary). EqRel
// relations are restricted to a single natural-order index.
func New(name string, rep Rep, arity int, orders []tuple.Order) *Relation {
	r := &Relation{Name: name, arity: arity, rep: rep}
	return r.build(orders, func(o tuple.Order) Index { return NewIndex(rep, o) })
}

// build gives r one index per order, made by mk (one natural-order index
// when no order is given), and binds their capabilities.
func (r *Relation) build(orders []tuple.Order, mk func(tuple.Order) Index) *Relation {
	if len(orders) == 0 {
		orders = []tuple.Order{tuple.Identity(r.arity)}
	}
	for _, o := range orders {
		if len(o) != r.arity {
			panic(fmt.Sprintf("relation %s: order %v does not match arity %d", r.Name, o, r.arity))
		}
		r.indexes = append(r.indexes, mk(o))
	}
	r.bind()
	return r
}

// bind looks up the indexes' capabilities: at construction, and again when
// AttachMetrics has wrapped the indexes.
func (r *Relation) bind() {
	r.bulk, r.del = r.bulk[:0], r.del[:0]
	for _, idx := range r.indexes {
		r.bulk = append(r.bulk, bulkInserterOf(idx))
		if d, ok := idx.(Deleter); ok {
			r.del = append(r.del, d)
		}
	}
	if len(r.del) < len(r.indexes) {
		r.del = nil
	}
}

// Deletable reports whether Delete is available: every index has the Deleter
// capability (eqrel relations do not).
func (r *Relation) Deletable() bool { return r.del != nil }

// NewIndex builds a single de-specialized index: the factory entry point of
// the paper's Fig 7, dispatching on representation and arity.
func NewIndex(rep Rep, order tuple.Order) Index {
	if len(order) == 0 {
		return &nullaryAdapter{}
	}
	if len(order) > MaxArity {
		panic(fmt.Sprintf("relation: arity %d exceeds the pre-instantiated maximum %d", len(order), MaxArity))
	}
	switch rep {
	case BTree:
		return newBTreeIndex(order)
	case Brie:
		return newBrieAdapter(order)
	case EqRel:
		return newEqrelAdapter(order)
	case Legacy:
		return newLegacyAdapter(order)
	default:
		panic(fmt.Sprintf("relation: unknown representation %v", rep))
	}
}

// AddIndex gives the relation one more index, in the given order, after it
// was built: the new index is bulk-loaded from the primary and maintained by
// every later Insert, InsertAll, Delete and Clear. Code that cached the index
// list (the interpreter's specialized insert nodes) must be regenerated, or
// the new index misses its inserts. Telemetry attached earlier does not count
// the new index. Sharded and eqrel relations take no added index; asking for
// one is an engine bug and panics.
func (r *Relation) AddIndex(order tuple.Order) Index {
	if r.shards > 0 || r.rep == EqRel || len(order) != r.arity {
		panic(fmt.Sprintf("relation %s: cannot add a %v index in order %v", r.Name, r.rep, order))
	}
	n := r.Size()
	flat := make([]value.Value, 0, n*r.arity)
	for it := r.Scan(); ; {
		t, ok := it.Next()
		if !ok {
			break
		}
		flat = append(flat, t...)
	}
	idx := NewIndex(r.rep, order)
	bulkInserterOf(idx).InsertAll(flat, n)
	r.indexes = append(r.indexes, idx)
	r.bind()
	return idx
}

// AttachMetrics installs telemetry counters: relation-level insert/dedup
// stats, and a countedIndex around every index counting into rs.Ops (one
// entry per index, as allocated by Collector.BindRelation). Call it at most
// once, before anything binds the relation's indexes (the tree generator
// does). A nil rs keeps telemetry off: no wrapper exists and the indexes are
// the bare adapters.
func (r *Relation) AttachMetrics(rs *metrics.RelationStats) {
	if rs == nil {
		return
	}
	r.stats = rs
	for i, idx := range r.indexes {
		r.indexes[i] = counted(idx, rs.Ops[i])
	}
	r.bind()
}

// Stats returns the attached telemetry block, or nil when telemetry is off.
func (r *Relation) Stats() *metrics.RelationStats { return r.stats }

// Arity reports the tuple width.
func (r *Relation) Arity() int { return r.arity }

// Rep reports the backing representation.
func (r *Relation) Rep() Rep { return r.rep }

// NumIndexes reports how many indexes the relation maintains.
func (r *Relation) NumIndexes() int { return len(r.indexes) }

// Index returns the i-th index.
func (r *Relation) Index(i int) Index { return r.indexes[i] }

// Primary returns the primary index.
func (r *Relation) Primary() Index { return r.indexes[0] }

// SearchIndex returns the index a RAM search with IndexID id reads: index id,
// or the primary index for an unkeyed search (id -1), which reads every tuple.
func (r *Relation) SearchIndex(id int) Index {
	if id < 0 {
		return r.indexes[0]
	}
	return r.indexes[id]
}

// Insert adds a source-order tuple to every index, reporting whether the
// primary index did not already contain it. Every index holds the same
// tuples, so a duplicate in the primary is one in all of them and costs
// that one probe.
func (r *Relation) Insert(t tuple.Tuple) bool {
	added := r.indexes[0].Insert(t)
	if added {
		for _, idx := range r.indexes[1:] {
			idx.Insert(t)
		}
	}
	if r.stats != nil {
		r.stats.CountInsert(added)
	}
	return added
}

// Delete removes a source-order tuple from every index, reporting whether
// the primary index contained it. The relation must be Deletable.
func (r *Relation) Delete(t tuple.Tuple) bool {
	removed := r.del[0].Delete(t)
	if removed {
		for _, d := range r.del[1:] {
			d.Delete(t)
		}
		if r.stats != nil {
			r.stats.CountRetract()
		}
	}
	return removed
}

// Contains tests membership of a source-order tuple.
func (r *Relation) Contains(t tuple.Tuple) bool { return r.indexes[0].Contains(t) }

// Size reports the number of tuples.
func (r *Relation) Size() int { return r.indexes[0].Size() }

// Empty reports whether the relation holds no tuples.
func (r *Relation) Empty() bool { return r.Size() == 0 }

// Clear removes all tuples from all indexes.
func (r *Relation) Clear() {
	for _, idx := range r.indexes {
		idx.Clear()
	}
}

// SwapContents exchanges contents with another relation of identical
// signature (arity, representation, index orders), in O(#indexes).
func (r *Relation) SwapContents(o *Relation) {
	if len(r.indexes) != len(o.indexes) {
		panic(fmt.Sprintf("relation: swap of %s and %s with different index counts", r.Name, o.Name))
	}
	for i := range r.indexes {
		r.indexes[i].SwapContents(o.indexes[i])
	}
}

// InsertFrom inserts every tuple of src, a relation of r's arity, into r:
// the MERGE statement. It walks src's primary (Walk), so on a B-tree it
// needs no scan buffer, and merging tuples r already holds allocates
// nothing. An empty src does no work.
func (r *Relation) InsertFrom(src *Relation) {
	if !src.Empty() {
		Walk(src.indexes[0], nil, 0, (*inserting)(r))
	}
}

// DeleteFrom deletes every tuple of src, a relation of r's arity, from r:
// the SUBTRACT statement, by the same walk as InsertFrom. r must be
// Deletable.
func (r *Relation) DeleteFrom(src *Relation) {
	if !src.Empty() {
		Walk(src.indexes[0], nil, 0, (*deleting)(r))
	}
}

// inserting and deleting are a relation as the Visitor of InsertFrom and
// DeleteFrom: each decoded tuple lands in the relation's slot and is
// inserted or deleted.
type (
	inserting Relation
	deleting  Relation
)

func (v *inserting) Slot() tuple.Tuple        { return v.slot[:v.arity] }
func (v *inserting) Visit(t tuple.Tuple) bool { (*Relation)(v).Insert(t); return true }
func (v *deleting) Slot() tuple.Tuple         { return v.slot[:v.arity] }
func (v *deleting) Visit(t tuple.Tuple) bool  { (*Relation)(v).Delete(t); return true }

// Scan enumerates the primary index in source order (decoding if the primary
// order is not natural). Every dynamic scan reads through the buffered
// iterator, which allocates BufferSize tuples when the scan opens: that pays
// off over a long scan. A caller that runs a search to its end and needs no
// iterator walks it instead (Walk), without the buffer on a B-tree.
func (r *Relation) Scan() Iterator {
	it := r.indexes[0].Scan()
	return NewDecoder(it, r.indexes[0].Order())
}

// NewDecoder wraps an encoded-order iterator so it yields source-order
// tuples. If the order is natural the iterator is returned unchanged.
func NewDecoder(it Iterator, order tuple.Order) Iterator {
	if order.IsIdentity() {
		return it
	}
	return &decodeIter{src: it, order: order, out: make(tuple.Tuple, len(order))}
}

type decodeIter struct {
	src   Iterator
	order tuple.Order
	out   tuple.Tuple
}

func (d *decodeIter) Next() (tuple.Tuple, bool) {
	t, ok := d.src.Next()
	if !ok {
		return nil, false
	}
	d.order.Decode(d.out, t)
	return d.out, true
}
