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

// deadSrc derives into scratch relations nothing observable reads: the
// scratch rules (one of them recursive, so it owns a fixpoint loop and a
// delta/new pair) must vanish under dead code elimination while the
// reachable output stays bit-identical.
const deadSrc = `
.decl edge(x:number, y:number)
.decl path(x:number, y:number)
.decl scratch(x:number)
.decl ring(x:number)
.input edge
.output path
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
scratch(x) :- edge(x, _).
ring(x) :- edge(x, _).
ring(x) :- ring(x), scratch(x).
`

func TestDeadCodeRemovesUnreachableRelations(t *testing.T) {
	plain, _ := build(t, deadSrc, false)
	opt, stOpt := build(t, deadSrc, true)
	if err := verify.Check(opt, "deadcode-test"); err != nil {
		t.Fatalf("optimized program fails verification: %v", err)
	}
	if len(opt.Relations) >= len(plain.Relations) {
		t.Fatalf("dead code kept all %d relations (plain has %d)",
			len(opt.Relations), len(plain.Relations))
	}
	for _, r := range opt.Relations {
		switch r.Name {
		case "scratch", "ring", "delta_ring", "new_ring":
			t.Fatalf("dead relation %s survived", r.Name)
		}
	}
	// IDs must be dense and match declaration order after renumbering.
	for i, r := range opt.Relations {
		if r.ID != i {
			t.Fatalf("relation %s has ID %d at index %d", r.Name, r.ID, i)
		}
	}
	facts := map[string][]tuple.Tuple{
		"edge": {{1, 2}, {2, 3}, {3, 1}, {4, 4}},
	}
	want := runProg(t, plain, symtabFor(t, deadSrc), facts, "path")
	got := runProg(t, opt, stOpt, facts, "path")
	if len(want) != len(got) {
		t.Fatalf("path differs: %d vs %d tuples", len(want), len(got))
	}
	for i := range want {
		if tuple.Compare(want[i], got[i]) != 0 {
			t.Fatalf("path differs at %d: %v vs %v", i, want[i], got[i])
		}
	}
}

func TestDeadCodeSkipsSinklessPrograms(t *testing.T) {
	// Without IO sinks every relation is observable only through engine
	// queries, so nothing may be removed.
	src := `
.decl a(x:number)
.decl b(x:number)
b(x) :- a(x).
`
	plain, _ := build(t, src, false)
	opt, _ := build(t, src, true)
	if len(opt.Relations) != len(plain.Relations) {
		t.Fatalf("sinkless program shrank: %d -> %d relations",
			len(plain.Relations), len(opt.Relations))
	}
}

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

func TestPruneIndexesDropsUnusedOrders(t *testing.T) {
	// Prune the unoptimized translation after grafting an extra unused
	// order onto edge.
	prog, _ := build(t, pruneSrc, false)
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
		t.Skip("no explicit orders on edge; nothing to prune")
	}
	// Graft a phantom secondary order no search references.
	phantom := make(tuple.Order, len(edge.Orders[0]))
	for i := range phantom {
		phantom[i] = len(phantom) - 1 - i
	}
	edge.Orders = append(edge.Orders, phantom)
	before := len(edge.Orders)
	ramopt.PruneIndexes(prog)
	if len(edge.Orders) >= before {
		t.Fatalf("unused order not pruned: %d -> %d", before, len(edge.Orders))
	}
	if err := verify.Check(prog, "pruneindex-test"); err != nil {
		t.Fatalf("pruned program fails verification: %v", err)
	}
}

func TestOptimizeStatsReportShrink(t *testing.T) {
	prog, st := build(t, deadSrc, false)
	s := ramopt.OptimizeStats(prog, st, ramopt.All())
	if !s.Changed() {
		t.Fatalf("stats report no change on a program with dead relations: %s", s)
	}
	if s.RelationsAfter >= s.RelationsBefore {
		t.Fatalf("relations did not shrink: %s", s)
	}
	if s.StatementsAfter >= s.StatementsBefore {
		t.Fatalf("statements did not shrink: %s", s)
	}
}

// TestPassesPreserveIOOnBenchSuites: for every Table 1 and Small-scale
// suite workload, the optimized program — under the product pass set
// (Queryable) and under All — produces byte-identical IO (stored tuples and
// printed sizes) to the unoptimized translation. Workloads share nothing
// (each side compiles its own program and symbol table once and only reads
// the workload's facts), so they run in parallel.
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
			a := execIO(t, plain, stPlain, w.NewIO())
			var queryable string
			for _, opts := range []ramopt.Options{ramopt.Queryable(), ramopt.All()} {
				opt, stOpt, err := w.Compile()
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				ramopt.Optimize(opt, stOpt, opts)
				if err := verify.Check(opt, "bench-opt"); err != nil {
					t.Fatalf("optimized program fails verification: %v", err)
				}
				// Where dead code elimination found nothing, All produced
				// the program Queryable did; running it again adds nothing.
				text := opt.String()
				if text == queryable {
					continue
				}
				if queryable == "" {
					queryable = text
				}
				compareIO(t, a, execIO(t, opt, stOpt, w.NewIO()))
			}
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

// runProg executes prog and returns rel's sorted tuples.
func runProg(t *testing.T, prog *ram.Program, st *symtab.Table, facts map[string][]tuple.Tuple, rel string) []tuple.Tuple {
	t.Helper()
	io := eio.NewMem()
	io.Facts = facts
	eng := interp.New(prog, st, interp.DefaultConfig())
	if err := eng.Run(io); err != nil {
		t.Fatalf("run: %v", err)
	}
	ts, err := eng.Tuples(rel)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(ts, func(i, j int) bool { return tuple.Compare(ts[i], ts[j]) < 0 })
	return ts
}

// symtabFor rebuilds a fresh symbol table by re-translating src (the plain
// build's table, unaffected by optimization).
func symtabFor(t *testing.T, src string) *symtab.Table {
	t.Helper()
	_, st := build(t, src, false)
	return st
}
