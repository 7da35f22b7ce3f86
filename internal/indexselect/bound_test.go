package indexselect_test

import (
	"testing"

	"sti/internal/indexselect"
	"sti/internal/ram"
	"sti/internal/ram/verify"
	"sti/internal/value"
)

// TestAssignRangeBounds: bounds never shape the orders. A bound survives
// only on an order that places its column right after the site's prefix —
// the placed order, or another one that starts with the same columns — and
// is dropped otherwise; a search that binds nothing and loses its bound is
// unkeyed (IndexID -1).
func TestAssignRangeBounds(t *testing.T) {
	num := func(arity int) []value.Type { return make([]value.Type, arity) }
	s := &ram.Relation{ID: 0, Name: "s", Arity: 1, Types: num(1)}
	r := &ram.Relation{ID: 1, Name: "r", Arity: 2, Types: num(2), BaseID: 1}
	q := &ram.Relation{ID: 2, Name: "q", Arity: 3, Types: num(3), BaseID: 2}
	out := &ram.Relation{ID: 3, Name: "out", Arity: 1, Types: num(1), BaseID: 3}
	x := &ram.TupleElement{TupleID: 0, Elem: 0}
	gt := func(col int) *ram.Bound { return &ram.Bound{Col: col, Type: value.Number, Lo: x, LoStrict: true} }
	project := &ram.Project{Rel: out, Exprs: []ram.Expr{x}}
	// query nests inner under a scan of s binding t0.
	query := func(inner ram.Operation) *ram.Query {
		return &ram.Query{NumTuples: 2, Root: &ram.Scan{Rel: s, Pattern: make([]ram.Expr, 1), TupleID: 0, Nested: inner}}
	}
	// r is searched on {1} only, so its one order is [1 0]: a bound on
	// column 0 after the prefix {1} is served, one on an empty prefix is not.
	served := &ram.Scan{Rel: r, Pattern: []ram.Expr{nil, x}, Bound: gt(0), TupleID: 1, Nested: project}
	unserved := &ram.Scan{Rel: r, Pattern: []ram.Expr{nil, nil}, Bound: gt(0), TupleID: 1, Nested: project}
	// q is searched on {0, 1} and {0, 2}: two chains, [0 1 2] and [0 2 1].
	// A bound on column 2 after {0} is served by whichever order has
	// column 2 second.
	q01 := &ram.Scan{Rel: q, Pattern: []ram.Expr{x, x, nil}, TupleID: 1, Nested: project}
	q02 := &ram.Scan{Rel: q, Pattern: []ram.Expr{x, nil, x}, TupleID: 1, Nested: project}
	other := &ram.Scan{Rel: q, Pattern: []ram.Expr{x, nil, nil}, Bound: gt(2), TupleID: 1, Nested: project}
	p := &ram.Program{
		Relations: []*ram.Relation{s, r, q, out},
		Main: &ram.Sequence{Stmts: []ram.Statement{
			query(served), query(unserved), query(q01), query(q02), query(other),
		}},
	}
	indexselect.Assign(p)
	if diags := verify.Program(p); len(diags) > 0 {
		t.Fatalf("Assign left an ill-formed program: %v\n%s", diags, p)
	}
	if len(r.Orders) != 1 || len(q.Orders) != 2 {
		t.Fatalf("bounds shaped the orders: r %v, q %v", r.Orders, q.Orders)
	}
	if served.Bound == nil {
		t.Errorf("bound after prefix {1} dropped on r's order %v", r.Orders[served.IndexID])
	}
	if unserved.Bound != nil || unserved.IndexID != -1 {
		t.Errorf("unserved bound on an empty prefix left bound %v on index %d, want an unkeyed scan (no bound, IndexID -1)\n%s", unserved.Bound != nil, unserved.IndexID, p)
	}
	if other.Bound == nil || q.Orders[other.IndexID][1] != 2 {
		t.Errorf("bound on column 2 after {0}: kept %v on order %v, want kept on the order with column 2 second (orders %v)", other.Bound != nil, q.Orders[other.IndexID], q.Orders)
	}
}
