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
// identity order and every keyed search on them index 0; an unkeyed search
// (ram.Keyed) gets IndexID -1 and is no site.
//
// Range bounds (ram.Bound) never shape the orders: a bounded site keeps its
// bound only when some selected order places the bound column right after
// the site's equality prefix — the order it then searches — and loses it
// otherwise. A site that binds no position and loses its bound is unkeyed
// and gets IndexID -1.
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
		rel   *ram.Relation
		sig   Signature
		bound *ram.Bound
		set   func(id int, keepBound bool)
	}
	var sites []site
	addSite := func(rel *ram.Relation, pattern []ram.Expr, bound *ram.Bound, set func(int, bool)) {
		var sig Signature
		for i, e := range pattern {
			if e != nil {
				sig |= Of(i)
			}
		}
		sites = append(sites, site{rel, sig, bound, set})
	}
	// searchSite adds a scan's, choice's or aggregate's search, whose
	// IndexID and bound are at id and bound, unless it is unkeyed: that gets
	// IndexID -1 here. Its setter drops the bound unless told to keep it.
	searchSite := func(rel *ram.Relation, pattern []ram.Expr, bound **ram.Bound, id *int) {
		if !ram.Keyed(pattern, *bound) {
			*id = -1
			return
		}
		addSite(rel, pattern, *bound, func(i int, keep bool) {
			*id = i
			if !keep {
				*bound = nil
				if !ram.Keyed(pattern, nil) {
					*id = -1
				}
			}
		})
	}
	for _, s := range p.Entries() {
		ram.Inspect(s, func(n any) bool {
			switch n := n.(type) {
			case *ram.Swap:
				parent[find(n.A)] = find(n.B)
			case *ram.Scan:
				searchSite(n.Rel, n.Pattern, &n.Bound, &n.IndexID)
			case *ram.Choice:
				searchSite(n.Rel, n.Pattern, &n.Bound, &n.IndexID)
			case *ram.Aggregate:
				var bound *ram.Bound
				searchSite(n.Rel, n.Pattern, &bound, &n.IndexID)
			case *ram.ExistenceCheck:
				addSite(n.Rel, n.Pattern, nil, func(id int, _ bool) { n.IndexID = id })
			}
			return true
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
			s.set(0, false)
			continue
		}
		id := selected[find(s.rel)].Placements[s.sig].Index
		keep := false
		if s.bound != nil {
			id, keep = boundOrder(s.rel.Orders, s.sig, s.bound.Col, id)
		}
		s.set(id, keep)
	}
}

// boundOrder returns the order a bounded search with equality signature sig
// and bound column col uses: the placed order id if it has col right after
// the prefix, else the first order that starts with sig's columns followed
// by col. keep is false (and id unchanged) when no order does.
func boundOrder(orders []tuple.Order, sig Signature, col, id int) (int, bool) {
	k := sig.Count()
	serves := func(ord tuple.Order) bool {
		if k >= len(ord) || ord[k] != col {
			return false
		}
		for _, c := range ord[:k] {
			if !sig.Has(c) {
				return false
			}
		}
		return true
	}
	if serves(orders[id]) {
		return id, true
	}
	for j, ord := range orders {
		if serves(ord) {
			return j, true
		}
	}
	return id, false
}
