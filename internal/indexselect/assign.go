package indexselect

import (
	"sti/internal/ram"
	"sti/internal/tuple"
)

// Assign is index selection for a finished RAM program: it computes every
// relation's Orders and points every search site at the order serving it.
// A site's signature is the set of non-nil positions of its pattern.
// Relations joined by a SWAP statement (the delta/new pairs of a fixpoint)
// form one group that is selected once over all its members' searches, so
// SWAP exchanges relations with identical orders. Eqrel relations get the
// identity order and every search on them index 0; a full-scan Aggregate
// keeps IndexID −1.
//
// Assign is the only code that writes Orders or IndexID; the translator
// calls it once as its last step, and no optimizer pass changes a
// signature.
func Assign(p *ram.Program) {
	// Swap groups: union-find over the SWAP statements.
	parent := map[*ram.Relation]*ram.Relation{}
	var find func(r *ram.Relation) *ram.Relation
	find = func(r *ram.Relation) *ram.Relation {
		if up, ok := parent[r]; ok && up != r {
			root := find(up)
			parent[r] = root
			return root
		}
		return r
	}
	type site struct {
		rel *ram.Relation
		sig Signature
		set func(int)
	}
	var sites []site
	for _, s := range []ram.Statement{p.Main, p.Update, p.Delete} {
		walk(s, func(a, b *ram.Relation) { parent[find(a)] = find(b) },
			func(rel *ram.Relation, pattern []ram.Expr, set func(int)) {
				var sig Signature
				for i, e := range pattern {
					if e != nil {
						sig |= Of(i)
					}
				}
				sites = append(sites, site{rel, sig, set})
			})
	}
	sigs := map[*ram.Relation][]Signature{}
	for _, s := range sites {
		root := find(s.rel)
		sigs[root] = append(sigs[root], s.sig)
	}

	selected := map[*ram.Relation]*Result{}
	for _, rel := range p.Relations {
		if rel.Rep == ram.RepEqRel {
			rel.Orders = []tuple.Order{tuple.Identity(rel.Arity)}
			continue
		}
		root := find(rel)
		res := selected[root]
		if res == nil {
			res = Select(rel.Arity, sigs[root])
			selected[root] = res
		}
		rel.Orders = append([]tuple.Order{}, res.Orders...)
	}
	for _, s := range sites {
		if s.rel.Rep == ram.RepEqRel {
			s.set(0)
			continue
		}
		s.set(selected[find(s.rel)].Placements[s.sig].Index)
	}
}

// walk visits every SWAP under s and every node that selects an index:
// index scans and choices, existence checks, and aggregates with at least
// one bound position. search gets the node's pattern and a setter for its
// IndexID.
func walk(s ram.Statement, swap func(a, b *ram.Relation), search func(rel *ram.Relation, pattern []ram.Expr, set func(int))) {
	var walkCond func(ram.Condition)
	walkCond = func(c ram.Condition) {
		switch c := c.(type) {
		case *ram.And:
			walkCond(c.L)
			walkCond(c.R)
		case *ram.Not:
			walkCond(c.C)
		case *ram.ExistenceCheck:
			search(c.Rel, c.Pattern, func(id int) { c.IndexID = id })
		}
	}
	var walkOp func(ram.Operation)
	walkOp = func(o ram.Operation) {
		switch o := o.(type) {
		case *ram.Scan:
			walkOp(o.Nested)
		case *ram.IndexScan:
			search(o.Rel, o.Pattern, func(id int) { o.IndexID = id })
			walkOp(o.Nested)
		case *ram.Choice:
			walkCond(o.Cond)
			walkOp(o.Nested)
		case *ram.IndexChoice:
			search(o.Rel, o.Pattern, func(id int) { o.IndexID = id })
			walkCond(o.Cond)
			walkOp(o.Nested)
		case *ram.Filter:
			walkCond(o.Cond)
			walkOp(o.Nested)
		case *ram.Aggregate:
			for _, e := range o.Pattern {
				if e != nil {
					search(o.Rel, o.Pattern, func(id int) { o.IndexID = id })
					break
				}
			}
			walkCond(o.Cond)
			walkOp(o.Nested)
		}
	}
	var walkStmt func(ram.Statement)
	walkStmt = func(s ram.Statement) {
		switch s := s.(type) {
		case *ram.Sequence:
			for _, st := range s.Stmts {
				walkStmt(st)
			}
		case *ram.Loop:
			walkStmt(s.Body)
		case *ram.Exit:
			walkCond(s.Cond)
		case *ram.Query:
			walkOp(s.Root)
		case *ram.Swap:
			swap(s.A, s.B)
		case *ram.LogTimer:
			walkStmt(s.Stmt)
		}
	}
	if s != nil {
		walkStmt(s)
	}
}
