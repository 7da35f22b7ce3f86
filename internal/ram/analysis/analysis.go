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
	var walkOp func(o ram.Operation)
	walkCond := func(c ram.Condition) {
		for rel := range condReads(c) {
			reads[rel] = true
		}
	}
	walkOp = func(o ram.Operation) {
		switch o := o.(type) {
		case *ram.Scan:
			reads[o.Rel] = true
			walkOp(o.Nested)
		case *ram.IndexScan:
			reads[o.Rel] = true
			walkOp(o.Nested)
		case *ram.Choice:
			reads[o.Rel] = true
			walkCond(o.Cond)
			walkOp(o.Nested)
		case *ram.IndexChoice:
			reads[o.Rel] = true
			walkCond(o.Cond)
			walkOp(o.Nested)
		case *ram.Filter:
			walkCond(o.Cond)
			walkOp(o.Nested)
		case *ram.Project:
			writes[o.Rel] = true
		case *ram.Aggregate:
			reads[o.Rel] = true
			walkCond(o.Cond)
			walkOp(o.Nested)
		}
	}
	walkOp(q.Root)
	delete(reads, nil)
	delete(writes, nil)
	return reads, writes
}

// condReads collects the relations read by a condition tree (existence and
// emptiness checks).
func condReads(c ram.Condition) map[*ram.Relation]bool {
	out := map[*ram.Relation]bool{}
	var walk func(ram.Condition)
	walk = func(c ram.Condition) {
		switch c := c.(type) {
		case *ram.And:
			walk(c.L)
			walk(c.R)
		case *ram.Not:
			walk(c.C)
		case *ram.EmptinessCheck:
			if c.Rel != nil {
				out[c.Rel] = true
			}
		case *ram.ExistenceCheck:
			if c.Rel != nil {
				out[c.Rel] = true
			}
		}
	}
	walk(c)
	return out
}
