// Package analysis holds the static facts the RAM pipeline shares:
//
//   - QueryEffects: the relations a query reads and writes, consulted by the
//     verifier's parallel-frozen, update-* and delete-* rules;
//   - Monotone (monotone.go) and Deletable (deletable.go): the source-level
//     classifications that decide whether ast2ram emits the Update and
//     Delete entry points;
//   - ShardKeys and StampShardKeys (shardplan.go): the shard plan.
//
// Each fact is computed where it is needed, by the one function that owns
// it; there is no whole-program fact bundle.
package analysis

import "sti/internal/ram"

// QueryEffects collects the relations a query's operation tree reads
// (scans, choices, aggregates, existence/emptiness checks) and writes
// (projections). It is defensive against malformed trees — nil children are
// skipped — so the verifier can consult it on programs it has not yet
// accepted.
func QueryEffects(q *ram.Query) (reads, writes map[*ram.Relation]bool) {
	reads = map[*ram.Relation]bool{}
	writes = map[*ram.Relation]bool{}
	if q == nil {
		return reads, writes
	}
	ram.Inspect(q.Root, func(n any) bool {
		switch n := n.(type) {
		case *ram.Scan:
			reads[n.Rel] = true
		case *ram.Choice:
			reads[n.Rel] = true
		case *ram.Aggregate:
			reads[n.Rel] = true
		case *ram.ExistenceCheck:
			reads[n.Rel] = true
		case *ram.EmptinessCheck:
			reads[n.Rel] = true
		case *ram.Project:
			writes[n.Rel] = true
		}
		return true
	})
	delete(reads, nil)
	delete(writes, nil)
	return reads, writes
}
