package ramopt_test

import (
	"sort"
	"testing"

	"sti/internal/bench"
	"sti/internal/eio"
	"sti/internal/interp"
	"sti/internal/ram"
	"sti/internal/ram/verify"
	"sti/internal/ramopt"
	"sti/internal/symtab"
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

// TestPassesPreserveIOOnBenchSuites: for every Table 1 and Small-scale
// suite workload, the optimized program produces byte-identical IO (stored
// tuples and printed sizes) to the unoptimized translation. Workloads share
// nothing (each side compiles its own program and symbol table once and
// only reads the workload's facts), so they run in parallel.
func TestPassesPreserveIOOnBenchSuites(t *testing.T) {
	if testing.Short() {
		t.Skip("bench suite comparison in -short mode")
	}
	workloads := append(bench.Table1Suite(), bench.Suites(bench.Small)...)
	for _, w := range workloads {
		w := w
		t.Run(w.FullName(), func(t *testing.T) {
			t.Parallel()
			plain, stPlain, err := w.Compile()
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			opt, stOpt, err := w.Compile()
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			ramopt.Optimize(opt, stOpt, ramopt.Queryable())
			if err := verify.Check(opt, "bench-opt"); err != nil {
				t.Fatalf("optimized program fails verification: %v", err)
			}
			compareIO(t, execIO(t, plain, stPlain, w.NewIO()), execIO(t, opt, stOpt, w.NewIO()))
		})
	}
}

func execIO(t *testing.T, prog *ram.Program, st *symtab.Table, io *eio.Mem) *eio.Mem {
	t.Helper()
	eng := interp.New(prog, st, interp.DefaultConfig())
	if err := eng.Run(io); err != nil {
		t.Fatalf("run: %v", err)
	}
	return io
}

func compareIO(t *testing.T, a, b *eio.Mem) {
	t.Helper()
	if len(a.Out) != len(b.Out) {
		t.Fatalf("output relation sets differ: %d vs %d", len(a.Out), len(b.Out))
	}
	for name, ta := range a.Out {
		tb, ok := b.Out[name]
		if !ok {
			t.Fatalf("optimized run lacks output %s", name)
		}
		sa, sb := sortedCopy(ta), sortedCopy(tb)
		if len(sa) != len(sb) {
			t.Fatalf("output %s differs: %d vs %d tuples", name, len(sa), len(sb))
		}
		for i := range sa {
			if tuple.Compare(sa[i], sb[i]) != 0 {
				t.Fatalf("output %s differs at %d: %v vs %v", name, i, sa[i], sb[i])
			}
		}
	}
	if len(a.Sizes) != len(b.Sizes) {
		t.Fatalf("printsize sets differ: %d vs %d", len(a.Sizes), len(b.Sizes))
	}
	for name, na := range a.Sizes {
		if nb, ok := b.Sizes[name]; !ok || na != nb {
			t.Fatalf("printsize %s differs: %d vs %d (present %v)", name, na, nb, ok)
		}
	}
}

func sortedCopy(ts []tuple.Tuple) []tuple.Tuple {
	out := make([]tuple.Tuple, len(ts))
	copy(out, ts)
	sort.Slice(out, func(i, j int) bool { return tuple.Compare(out[i], out[j]) < 0 })
	return out
}
