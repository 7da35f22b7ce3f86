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
	v := &shardVoter{p: p, votes: votes}
	if p.Main != nil {
		v.stmt(p.Main)
	}
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

// shardVoter walks Main and tallies, per base relation, how many search
// sites bind each column. Sites on aux companions vote for the base: in the
// fixpoint it is delta/new relations that are scanned and probed, and the
// whole family must partition identically.
type shardVoter struct {
	p     *ram.Program
	votes [][]int
}

// vote adds one tally per bound pattern column to rel's base relation.
func (v *shardVoter) vote(rel *ram.Relation, pattern []ram.Expr) {
	if rel == nil {
		return
	}
	id := rel.ID
	if rel.IsAux() && rel.BaseID >= 0 && rel.BaseID < len(v.votes) {
		id = rel.BaseID
	}
	if id < 0 || id >= len(v.votes) {
		return
	}
	tally := v.votes[id]
	for c, e := range pattern {
		if e != nil && c < len(tally) {
			tally[c]++
		}
	}
}

func (v *shardVoter) stmt(s ram.Statement) {
	switch s := s.(type) {
	case *ram.Sequence:
		for _, st := range s.Stmts {
			if st != nil {
				v.stmt(st)
			}
		}
	case *ram.Loop:
		if s.Body != nil {
			v.stmt(s.Body)
		}
	case *ram.Query:
		v.op(s.Root)
	case *ram.LogTimer:
		if s.Stmt != nil {
			v.stmt(s.Stmt)
		}
	}
}

func (v *shardVoter) op(o ram.Operation) {
	switch o := o.(type) {
	case *ram.Scan:
		v.vote(o.Rel, o.Pattern)
		v.op(o.Nested)
	case *ram.Choice:
		v.vote(o.Rel, o.Pattern)
		v.cond(o.Cond)
		v.op(o.Nested)
	case *ram.Filter:
		v.cond(o.Cond)
		v.op(o.Nested)
	case *ram.Aggregate:
		v.vote(o.Rel, o.Pattern)
		v.cond(o.Cond)
		v.op(o.Nested)
	}
}

func (v *shardVoter) cond(c ram.Condition) {
	switch c := c.(type) {
	case *ram.And:
		v.cond(c.L)
		v.cond(c.R)
	case *ram.Not:
		v.cond(c.C)
	case *ram.ExistenceCheck:
		v.vote(c.Rel, c.Pattern)
	}
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
