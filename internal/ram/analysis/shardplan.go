package analysis

import "sti/internal/ram"

// ShardKeys derives a shard plan for a RAM program: the partition column of
// every relation for hash-partitioned ("sharded") evaluation, in source
// coordinates, or -1 for relations that cannot be sharded. The slice is
// aligned with p.Relations.
//
// The key of a base relation is the column most often bound by Main's
// searches of it or of its aux companions (scans, choices,
// aggregates, existence checks): partitioning on the most-bound column lets
// the largest share of point and prefix reads resolve against a single
// shard instead of broadcasting over all of them. Only Main votes — the
// Update/Delete entry points run over the same partitions, but their
// rotated variants bind different columns than the fixpoint the plan
// serves, and a read whose bound prefix misses the key visits every shard.
// Ties break toward the lowest column, and relations that are only ever
// fully scanned partition on column 0. Aux relations (delta/new/recent and the
// delete-propagation families) take exactly their base's key, so the Swap
// and Merge statements of semi-naive evaluation exchange whole partitions
// between aligned shards — the invariant the shard-local-writes verifier
// rule enforces.
//
// Unshardable (-1): nullary relations (nothing to hash) and eqrel relations
// (the union-find implies pairs across arbitrary elements, so no hash
// partition of the pair space is closed under its congruence).
func ShardKeys(p *ram.Program) []int {
	if p == nil {
		return nil
	}
	keys := make([]int, len(p.Relations))
	votes := make([][]int, len(p.Relations))
	for i, rd := range p.Relations {
		keys[i] = -1
		if rd != nil {
			votes[i] = make([]int, rd.Arity)
		}
	}
	// Every search site of Main adds one tally per bound pattern column to
	// its relation's base: in the fixpoint it is delta/new relations that
	// are scanned and probed, and the whole family must partition
	// identically.
	vote := func(rel *ram.Relation, pattern []ram.Expr) {
		if rel == nil {
			return
		}
		id := rel.ID
		if rel.IsAux() && rel.BaseID >= 0 && rel.BaseID < len(votes) {
			id = rel.BaseID
		}
		if id < 0 || id >= len(votes) {
			return
		}
		for c, e := range pattern {
			if e != nil && c < len(votes[id]) {
				votes[id][c]++
			}
		}
	}
	ram.Inspect(p.Main, func(n any) bool {
		switch n := n.(type) {
		case *ram.Scan:
			vote(n.Rel, n.Pattern)
		case *ram.Choice:
			vote(n.Rel, n.Pattern)
		case *ram.Aggregate:
			vote(n.Rel, n.Pattern)
		case *ram.ExistenceCheck:
			vote(n.Rel, n.Pattern)
		}
		return true
	})
	// First pass: source relations take their own vote tally.
	for i, rd := range p.Relations {
		if rd == nil || rd.Arity == 0 || rd.Rep == ram.RepEqRel || rd.IsAux() {
			continue
		}
		keys[i] = argmaxVote(votes[i])
	}
	// Second pass: aux companions inherit their base's key.
	for i, rd := range p.Relations {
		if rd == nil || !rd.IsAux() || rd.Arity == 0 || rd.Rep == ram.RepEqRel {
			continue
		}
		if rd.BaseID < 0 || rd.BaseID >= len(keys) {
			continue
		}
		base := p.Relations[rd.BaseID]
		// Aux relations of eqrel bases are plain B-trees of explicit
		// pairs; the base has no key to inherit, so they take column 0.
		if base != nil && base.Rep == ram.RepEqRel {
			keys[i] = 0
			continue
		}
		keys[i] = keys[rd.BaseID]
	}
	return keys
}

// argmaxVote returns the most-voted column, breaking ties toward the lowest
// (column 0 when nothing is ever bound).
func argmaxVote(votes []int) int {
	best := 0
	for c := 1; c < len(votes); c++ {
		if votes[c] > votes[best] {
			best = c
		}
	}
	return best
}

// StampShardKeys computes ShardKeys and records the plan on the relation
// declarations (ram.Relation.ShardKey, 1-based). ast2ram calls it once per
// translation; engines that shard read the stamped plan instead of
// re-deriving it.
func StampShardKeys(p *ram.Program) {
	for i, col := range ShardKeys(p) {
		p.Relations[i].ShardKey = col + 1
	}
}
