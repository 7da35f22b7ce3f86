package ramopt_test

import (
	"testing"

	"sti/internal/ram"
	"sti/internal/ram/verify"
	"sti/internal/ramopt"
	"sti/internal/tuple"
)

// pruneSrc searches edge on its first column, keeping the primary order
// busy; the pruning test grafts a phantom secondary order onto edge and
// checks it is dropped.
const pruneSrc = `
.decl edge(x:number, y:number)
.decl back(x:number, y:number)
.input edge
.output back
back(y, x) :- edge(x, y), edge(y, _).
`

// graftPhantomOrder appends a secondary order no search references to edge
// (the reverse of its primary) and returns edge, or nil when the translation
// gave edge no explicit orders.
func graftPhantomOrder(t *testing.T, prog *ram.Program) *ram.Relation {
	t.Helper()
	var edge *ram.Relation
	for _, r := range prog.Relations {
		if r.Name == "edge" {
			edge = r
		}
	}
	if edge == nil {
		t.Fatal("no edge relation")
	}
	if len(edge.Orders) == 0 {
		return nil
	}
	phantom := make(tuple.Order, len(edge.Orders[0]))
	for i := range phantom {
		phantom[i] = len(phantom) - 1 - i
	}
	edge.Orders = append(edge.Orders, phantom)
	return edge
}

func TestPruneIndexesDropsUnusedOrders(t *testing.T) {
	// Prune the unoptimized translation after grafting an extra unused
	// order onto edge.
	prog, _ := build(t, pruneSrc, false)
	edge := graftPhantomOrder(t, prog)
	if edge == nil {
		t.Skip("no explicit orders on edge; nothing to prune")
	}
	before := len(edge.Orders)
	ramopt.PruneIndexes(prog)
	if len(edge.Orders) >= before {
		t.Fatalf("unused order not pruned: %d -> %d", before, len(edge.Orders))
	}
	if err := verify.Check(prog, "pruneindex-test"); err != nil {
		t.Fatalf("pruned program fails verification: %v", err)
	}
}

// TestOptimizeStatsReportShrink: the stats OptimizeStats returns report the
// index orders pruning drops, and nothing else, since no pass removes
// statements.
func TestOptimizeStatsReportShrink(t *testing.T) {
	prog, st := build(t, pruneSrc, false)
	edge := graftPhantomOrder(t, prog)
	if edge == nil {
		t.Skip("no explicit orders on edge; nothing to prune")
	}
	s := ramopt.OptimizeStats(prog, st, ramopt.Queryable())
	if !s.Changed() {
		t.Fatalf("stats report no change on a program with an unused order: %s", s)
	}
	if s.IndexesAfter != s.IndexesBefore-1 {
		t.Fatalf("indexes did not shrink by the grafted order: %s", s)
	}
	if s.StatementsAfter != s.StatementsBefore {
		t.Fatalf("statements changed: %s", s)
	}
}
