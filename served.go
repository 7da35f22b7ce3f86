package sti

import (
	"slices"
	"sync"
	"sync/atomic"

	"sti/internal/relation"
	"sti/internal/tuple"
)

// maxServedOrders caps the orders a relation gains for served queries. Each
// holds one more copy of the relation (arity words per tuple, plus B-tree
// overhead), so a relation's memory grows at most threefold however many
// bound sets clients query; a pattern over the cap keeps its filtered scan.
const maxServedOrders = 2

// servedOrders gives served query patterns an index of their own. A query
// whose bound set no index answers (interp.Engine.Query reports it uncovered)
// is answered by a filtered scan and its bound set recorded as wanted; the
// next Apply's write section builds the wanted orders before it classifies
// the batch (interp.Engine.AddOrder). Orders are not persisted: a reopened
// database builds them again on demand. Sharded and eqrel relations take
// none — their engine relations cannot grow an index (an eqrel's (_, b) is
// answered through symmetry instead).
type servedOrders struct {
	// mu guards want, which concurrent readers append to. built changes only
	// in the write section, which no reader overlaps.
	mu    sync.Mutex
	want  []servedWant
	built map[string][]tuple.Order
	// scans counts query answers no index covered.
	scans atomic.Uint64
}

type servedWant struct {
	rel  string
	mask []bool
}

// miss counts an uncovered answer and records its bound set as wanted when
// the relation may still take a served order. Readers call it under their
// snapshot.
func (s *servedOrders) miss(rel *relation.Relation, mask []bool) {
	s.scans.Add(1)
	if rel.Sharded() || rel.Rep() == relation.EqRel || len(s.built[rel.Name]) >= maxServedOrders {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !slices.ContainsFunc(s.want, func(w servedWant) bool { return w.rel == rel.Name && slices.Equal(w.mask, mask) }) {
		s.want = append(s.want, servedWant{rel.Name, slices.Clone(mask)})
	}
}

// build adds every wanted order, in the order the misses arrived, up to the
// cap. Apply runs it in its write section.
func (s *servedOrders) build(db *Database) {
	s.mu.Lock()
	want := s.want
	s.want = nil
	s.mu.Unlock()
	for _, w := range want {
		if len(s.built[w.rel]) >= maxServedOrders {
			continue
		}
		if order := db.eng.AddOrder(w.rel, w.mask); order != nil {
			if s.built == nil {
				s.built = map[string][]tuple.Order{}
			}
			s.built[w.rel] = append(s.built[w.rel], order)
		}
	}
}
