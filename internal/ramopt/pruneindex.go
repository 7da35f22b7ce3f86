package ramopt

import (
	"sort"

	"sti/internal/ram"
	"sti/internal/tuple"
)

// pruneIndexes drops secondary index orders no search in the program uses.
// Its own walk over Main, Update and Delete (forEachSearch) is the one
// index-usage computation in the pipeline. The primary (index 0) is never
// pruned: full scans, merges, stores, and deterministic iteration all run
// over it.
//
// Pruning is performed per *swap group*: relations connected by SWAP
// statements (delta_R/new_R pairs) must keep identical order lists — the
// swap-shape invariant index selection established by mirroring delta's
// orders onto new — so an order is removed only when no member of the group
// uses it. Surviving searches are renumbered onto the compacted index list.
func pruneIndexes(p *ram.Program) {
	used := map[*ram.Relation]map[int]bool{}
	use := func(rel *ram.Relation, indexID int) {
		if rel == nil || indexID <= 0 {
			return
		}
		m := used[rel]
		if m == nil {
			m = map[int]bool{}
			used[rel] = m
		}
		m[indexID] = true
	}
	forEachSearch(p.Main, use)
	forEachSearch(p.Update, use)
	forEachSearch(p.Delete, use)

	// Union-find over swap statements groups relations whose order lists
	// must stay identical.
	parent := map[*ram.Relation]*ram.Relation{}
	var find func(r *ram.Relation) *ram.Relation
	find = func(r *ram.Relation) *ram.Relation {
		for parent[r] != nil && parent[r] != r {
			r = parent[r]
		}
		return r
	}
	union := func(a, b *ram.Relation) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	collectSwaps(p.Main, union)
	collectSwaps(p.Update, union)
	collectSwaps(p.Delete, union)

	groups := map[*ram.Relation][]*ram.Relation{}
	for _, r := range p.Relations {
		if r == nil || len(r.Orders) <= 1 {
			continue
		}
		root := r
		if parent[r] != nil {
			root = find(r)
		}
		groups[root] = append(groups[root], r)
	}

	remap := map[*ram.Relation][]int{} // old index → new index, -1 dropped
	for _, members := range groups {
		groupUsed := map[int]bool{}
		for _, r := range members {
			for id := range used[r] {
				groupUsed[id] = true
			}
		}
		n := len(members[0].Orders)
		uniform := true
		for _, r := range members {
			if len(r.Orders) != n {
				uniform = false
			}
		}
		if !uniform {
			continue // malformed swap group; leave it to the verifier
		}
		keep := []int{0}
		for id := 1; id < n; id++ {
			if groupUsed[id] {
				keep = append(keep, id)
			}
		}
		if len(keep) == n {
			continue
		}
		sort.Ints(keep)
		m := make([]int, n)
		for i := range m {
			m[i] = -1
		}
		for newID, oldID := range keep {
			m[oldID] = newID
		}
		for _, r := range members {
			orders := make([]tuple.Order, 0, len(keep))
			for _, oldID := range keep {
				orders = append(orders, r.Orders[oldID])
			}
			r.Orders = orders
			remap[r] = m
		}
	}
	if len(remap) == 0 {
		return
	}
	renumber := func(rel *ram.Relation, indexID int) int {
		m := remap[rel]
		if m == nil || indexID < 0 || indexID >= len(m) {
			return indexID
		}
		return m[indexID]
	}
	rewriteSearchIDs(p.Main, renumber)
	rewriteSearchIDs(p.Update, renumber)
	rewriteSearchIDs(p.Delete, renumber)
}

// forEachSearch visits every index-selecting site under s.
func forEachSearch(s ram.Statement, fn func(*ram.Relation, int)) {
	walkSearchSites(s, func(rel *ram.Relation, get func() int, _ func(int)) {
		fn(rel, get())
	})
}

// rewriteSearchIDs renumbers every index-selecting site under s.
func rewriteSearchIDs(s ram.Statement, renumber func(*ram.Relation, int) int) {
	walkSearchSites(s, func(rel *ram.Relation, get func() int, set func(int)) {
		set(renumber(rel, get()))
	})
}

// walkSearchSites visits every node carrying an IndexID (index scans and
// choices, existence checks, aggregates) with getter/setter accessors.
func walkSearchSites(s ram.Statement, visit func(rel *ram.Relation, get func() int, set func(int))) {
	var walkCond func(ram.Condition)
	walkCond = func(c ram.Condition) {
		switch c := c.(type) {
		case *ram.And:
			walkCond(c.L)
			walkCond(c.R)
		case *ram.Not:
			walkCond(c.C)
		case *ram.ExistenceCheck:
			visit(c.Rel, func() int { return c.IndexID }, func(id int) { c.IndexID = id })
		}
	}
	var walkOp func(ram.Operation)
	walkOp = func(o ram.Operation) {
		switch o := o.(type) {
		case *ram.Scan:
			walkOp(o.Nested)
		case *ram.IndexScan:
			visit(o.Rel, func() int { return o.IndexID }, func(id int) { o.IndexID = id })
			walkOp(o.Nested)
		case *ram.Choice:
			walkCond(o.Cond)
			walkOp(o.Nested)
		case *ram.IndexChoice:
			visit(o.Rel, func() int { return o.IndexID }, func(id int) { o.IndexID = id })
			walkCond(o.Cond)
			walkOp(o.Nested)
		case *ram.Filter:
			walkCond(o.Cond)
			walkOp(o.Nested)
		case *ram.Aggregate:
			if o.IndexID >= 0 {
				visit(o.Rel, func() int { return o.IndexID }, func(id int) { o.IndexID = id })
			}
			walkCond(o.Cond)
			walkOp(o.Nested)
		case *ram.Project:
		}
	}
	var walk func(ram.Statement)
	walk = func(s ram.Statement) {
		switch s := s.(type) {
		case *ram.Sequence:
			for _, st := range s.Stmts {
				walk(st)
			}
		case *ram.Loop:
			walk(s.Body)
		case *ram.Exit:
			walkCond(s.Cond)
		case *ram.Query:
			walkOp(s.Root)
		case *ram.LogTimer:
			walk(s.Stmt)
		}
	}
	if s != nil {
		walk(s)
	}
}

// collectSwaps calls union for every SWAP pair under s.
func collectSwaps(s ram.Statement, union func(a, b *ram.Relation)) {
	var walk func(ram.Statement)
	walk = func(s ram.Statement) {
		switch s := s.(type) {
		case *ram.Sequence:
			for _, st := range s.Stmts {
				walk(st)
			}
		case *ram.Loop:
			walk(s.Body)
		case *ram.Swap:
			if s.A != nil && s.B != nil {
				union(s.A, s.B)
			}
		case *ram.LogTimer:
			walk(s.Stmt)
		}
	}
	if s != nil {
		walk(s)
	}
}
