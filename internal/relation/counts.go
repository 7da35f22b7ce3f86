package relation

import (
	"sti/internal/tuple"
	"sti/internal/value"
)

// Support counts for counting-based delete propagation. A counting relation
// carries a sidecar map from tuple to the number of derivations that produced
// it; the indexes still store each tuple once (set semantics), the sidecar
// remembers multiplicity. Retraction then needs no rederivation for
// non-recursive strata: a tuple dies exactly when its count reaches zero.
//
// The sidecar is maintained at the same seam as the indexes — Insert and
// InsertAll bump it per attempt (not per fresh tuple: duplicates are the
// whole point), Clear empties it, SwapContents exchanges it, Delete drops the
// entry. All of these run under the engine's write section, so the map needs
// no locking.

// countKey is a tuple flattened into a fixed-size array so it can key a map.
// Slots past the relation's arity stay zero.
type countKey [MaxArity]value.Value

func (r *Relation) key(t tuple.Tuple) countKey {
	var k countKey
	copy(k[:], t)
	return k
}

// EnableCounting attaches an empty support-count sidecar. Called once at
// engine construction for relations the translator marked Counting.
func (r *Relation) EnableCounting() {
	r.counts = make(map[countKey]int32)
}

// Counting reports whether the relation maintains support counts.
func (r *Relation) Counting() bool { return r.counts != nil }

// Count returns the support count of a source-order tuple (0 if absent).
func (r *Relation) Count(t tuple.Tuple) int32 { return r.counts[r.key(t)] }

// AddCount adds n derivations of t, reporting whether t transitioned from
// unsupported to supported; on that transition t is also physically inserted
// into the indexes. This is the count-merge entry point: the source buffer's
// per-tuple multiplicities fold into the destination in one call each.
func (r *Relation) AddCount(t tuple.Tuple, n int32) bool {
	k := r.key(t)
	old := r.counts[k]
	r.counts[k] = old + n
	if old != 0 {
		return false
	}
	added := r.indexes[0].Insert(t)
	for _, idx := range r.indexes[1:] {
		idx.Insert(t)
	}
	if r.stats != nil {
		r.stats.CountInsert(added)
	}
	return true
}

// DecCount removes n derivations of t, clamping at zero, and reports whether
// t just lost its last support. The tuple stays in the indexes and the
// zero-count entry stays in the sidecar: physical removal is deferred to the
// delete program's final subtract pass, which must still see the old state
// while other strata propagate.
func (r *Relation) DecCount(t tuple.Tuple, n int32) bool {
	k := r.key(t)
	old, ok := r.counts[k]
	if !ok || old == 0 {
		return false
	}
	nw := old - n
	if nw < 0 {
		nw = 0
	}
	r.counts[k] = nw
	return nw == 0
}

// RangeCounts calls fn for every supported tuple with its count. The yielded
// tuple is reused across calls; fn must not retain it. Iteration order is
// unspecified — callers fold into sets, so order cannot be observed.
func (r *Relation) RangeCounts(fn func(t tuple.Tuple, n int32)) {
	buf := make(tuple.Tuple, r.arity)
	for k, n := range r.counts {
		if n == 0 {
			continue
		}
		copy(buf, k[:r.arity])
		fn(buf, n)
	}
}

// Delete removes a source-order tuple from every index and drops its support
// entry, reporting whether the primary index contained it. The relation must
// be Deletable.
func (r *Relation) Delete(t tuple.Tuple) bool {
	removed := r.del[0].Delete(t)
	if removed {
		for _, d := range r.del[1:] {
			d.Delete(t)
		}
		if r.stats != nil {
			r.stats.CountDelete()
		}
	}
	if r.counts != nil {
		delete(r.counts, r.key(t))
	}
	return removed
}
