package indexselect_test

import (
	"reflect"
	"testing"

	"sti/internal/indexselect"
	"sti/internal/ram"
	"sti/internal/ram/verify"
	"sti/internal/tuple"
	"sti/internal/value"
)

// assignProgram is a hand-built RAM program exercising every rule of
// Assign:
//
//	n(c)     :- c = count : edge(_, _).       full-scan aggregate
//	fixpoint: new_path(x, z) :- delta_path(x, y), edge(y, z), !new_path(_, z).
//	          SWAP (delta_path, new_path)     only new_path is searched
//	path(x, y) :- edge(x, y), same(x, y), same(x, _).   eqrel searches
//
// lonely is declared and never searched. Every IndexID starts at a value
// Assign must overwrite (the aggregate's −1 excepted).
type assignProgram struct {
	prog                        *ram.Program
	edge, delta, nw, same, lone *ram.Relation
	agg                         *ram.Aggregate
	edgeScan                    *ram.IndexScan
	newCheck                    *ram.ExistenceCheck
	sameChecks                  []*ram.ExistenceCheck
}

func newAssignProgram() *assignProgram {
	num := func(arity int) []value.Type {
		ts := make([]value.Type, arity)
		for i := range ts {
			ts[i] = value.Number
		}
		return ts
	}
	var rels []*ram.Relation
	declare := func(name string, arity int, rep ram.RepKind, kind ram.AuxKind, base int) *ram.Relation {
		r := &ram.Relation{ID: len(rels), Name: name, Arity: arity, Types: num(arity), Rep: rep, Kind: kind, BaseID: base}
		if kind == ram.AuxNone {
			r.BaseID = r.ID
		}
		rels = append(rels, r)
		return r
	}
	a := &assignProgram{}
	a.edge = declare("edge", 2, ram.RepBTree, ram.AuxNone, 0)
	path := declare("path", 2, ram.RepBTree, ram.AuxNone, 0)
	a.delta = declare("@delta_path", 2, ram.RepBTree, ram.AuxDelta, path.ID)
	a.nw = declare("@new_path", 2, ram.RepBTree, ram.AuxNew, path.ID)
	a.same = declare("same", 2, ram.RepEqRel, ram.AuxNone, 0)
	n := declare("n", 1, ram.RepBTree, ram.AuxNone, 0)
	a.lone = declare("lonely", 3, ram.RepBTree, ram.AuxNone, 0)

	te := func(tid, elem int) ram.Expr { return &ram.TupleElement{TupleID: tid, Elem: elem} }
	a.agg = &ram.Aggregate{
		Kind: ram.AggCount, Rel: a.edge, IndexID: -1, Pattern: make([]ram.Expr, 2),
		Type: value.Number, TupleID: 0,
		Nested: &ram.Project{Rel: n, Exprs: []ram.Expr{te(0, 0)}},
	}
	a.newCheck = &ram.ExistenceCheck{Rel: a.nw, IndexID: 9, Pattern: []ram.Expr{nil, te(1, 1)}}
	a.edgeScan = &ram.IndexScan{
		Rel: a.edge, IndexID: 9, Pattern: []ram.Expr{te(0, 1), nil}, TupleID: 1,
		Nested: &ram.Filter{
			Cond:   &ram.Not{C: a.newCheck},
			Nested: &ram.Project{Rel: a.nw, Exprs: []ram.Expr{te(0, 0), te(1, 1)}},
		},
	}
	a.sameChecks = []*ram.ExistenceCheck{
		{Rel: a.same, IndexID: 9, Pattern: []ram.Expr{te(0, 0), te(0, 1)}},
		{Rel: a.same, IndexID: 9, Pattern: []ram.Expr{te(0, 0), nil}},
	}
	a.prog = &ram.Program{
		Relations: rels,
		Main: &ram.Sequence{Stmts: []ram.Statement{
			&ram.Query{Root: a.agg, NumTuples: 1, RuleID: 0},
			&ram.Loop{Body: &ram.Sequence{Stmts: []ram.Statement{
				&ram.Query{Root: &ram.Scan{Rel: a.delta, TupleID: 0, Nested: a.edgeScan}, NumTuples: 2, RuleID: 1},
				&ram.Exit{Cond: &ram.EmptinessCheck{Rel: a.nw}},
				&ram.Swap{A: a.delta, B: a.nw},
			}}},
			&ram.Query{Root: &ram.Scan{Rel: a.edge, TupleID: 0, Nested: &ram.Filter{
				Cond:   &ram.And{L: a.sameChecks[0], R: a.sameChecks[1]},
				Nested: &ram.Project{Rel: path, Exprs: []ram.Expr{te(0, 0), te(0, 1)}},
			}}, NumTuples: 1, RuleID: 2},
		}},
		NumRules: 3,
	}
	return a
}

func TestAssign(t *testing.T) {
	a := newAssignProgram()
	indexselect.Assign(a.prog)

	t.Run("swap group shares orders", func(t *testing.T) {
		// Only new_path is searched, on column 1; delta_path is SWAPped
		// with it, so both carry the order serving that search.
		want := []tuple.Order{{1, 0}}
		if !reflect.DeepEqual(a.nw.Orders, want) || !reflect.DeepEqual(a.delta.Orders, want) {
			t.Fatalf("new orders %v, delta orders %v, want both %v", a.nw.Orders, a.delta.Orders, want)
		}
		if a.newCheck.IndexID != 0 {
			t.Fatalf("existence check on new uses index %d, want 0", a.newCheck.IndexID)
		}
	})
	t.Run("eqrel gets identity and index 0", func(t *testing.T) {
		if want := []tuple.Order{{0, 1}}; !reflect.DeepEqual(a.same.Orders, want) {
			t.Fatalf("eqrel orders %v, want %v", a.same.Orders, want)
		}
		for i, ex := range a.sameChecks {
			if ex.IndexID != 0 {
				t.Fatalf("eqrel search %d uses index %d, want 0", i, ex.IndexID)
			}
		}
	})
	t.Run("full-scan aggregate keeps -1", func(t *testing.T) {
		if a.agg.IndexID != -1 {
			t.Fatalf("aggregate IndexID %d, want -1", a.agg.IndexID)
		}
	})
	t.Run("unsearched relation gets identity", func(t *testing.T) {
		if want := []tuple.Order{{0, 1, 2}}; !reflect.DeepEqual(a.lone.Orders, want) {
			t.Fatalf("lonely orders %v, want %v", a.lone.Orders, want)
		}
	})
	t.Run("index scan placed on its order", func(t *testing.T) {
		if want := []tuple.Order{{0, 1}}; !reflect.DeepEqual(a.edge.Orders, want) || a.edgeScan.IndexID != 0 {
			t.Fatalf("edge orders %v, scan index %d, want %v and 0", a.edge.Orders, a.edgeScan.IndexID, want)
		}
	})
	t.Run("result verifies", func(t *testing.T) {
		if err := verify.Check(a.prog, "indexselect-test"); err != nil {
			t.Fatal(err)
		}
	})
}
