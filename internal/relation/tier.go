package relation

import (
	"sti/internal/store"
	"sti/internal/tuple"
)

// Tier hands out the store tables behind NewPersistent's indexes.
//
// Exhibit, not a production path: no sti command builds a persistent
// relation. A durable database is WAL + snapshot over the ordinary
// adapters (see the root package's persist.go); this seam, persistAdapter
// and internal/store's table stack remain because perfbench's
// relation.persist_* and store.table_* probes measure them, and are
// covered by persist_test.go.
type Tier interface {
	// Table returns the table backing index idx of relation rel, keyed at
	// tuple.KeySize(len(order)) bytes, or nil to decline.
	Table(rel string, idx int, order tuple.Order) *store.Table
}

// NewPersistent creates a relation whose indexes are store tables from
// tier. It returns nil when the tier declines any index.
func NewPersistent(name string, arity int, orders []tuple.Order, tier Tier) *Relation {
	if arity == 0 || arity > MaxArity {
		return nil
	}
	if len(orders) == 0 {
		orders = []tuple.Order{tuple.Identity(arity)}
	}
	r := &Relation{Name: name, arity: arity, rep: Persist}
	for i, o := range orders {
		tab := tier.Table(name, i, o)
		if tab == nil {
			return nil
		}
		r.indexes = append(r.indexes, newPersistAdapter(tab, o))
	}
	r.bind()
	return r
}
