package interp

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"sti/internal/ramopt"
	"sti/internal/relation"
	"sti/internal/tuple"
	"sti/internal/value"
)

// TestParallelMatchesSerial: the parallel interpreter computes exactly the
// serial results at 2 and 4 workers over randomized graphs for a program
// with recursion, negation, aggregates, and eqrel.
func TestParallelMatchesSerial(t *testing.T) {
	src := `
.decl edge(x:number, y:number)
.decl path(x:number, y:number)
.decl node(x:number)
.decl unreached(x:number)
.decl deg(x:number, n:number)
.decl eq(x:number, y:number) eqrel
.input edge
node(x) :- edge(x, _).
node(y) :- edge(_, y).
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
unreached(x) :- node(x), !path(0, x).
deg(x, n) :- node(x), n = count : { edge(x, _) }.
eq(x, y) :- edge(x, y), x < y.
`
	rng := rand.New(rand.NewSource(123))
	rels := []string{"path", "node", "unreached", "deg", "eq"}
	for trial := 0; trial < 3; trial++ {
		n := 30 + trial*20
		facts := map[string][]tuple.Tuple{}
		for i := 0; i < 4*n; i++ {
			facts["edge"] = append(facts["edge"],
				tuple.Tuple{value.Value(rng.Intn(n)), value.Value(rng.Intn(n))})
		}
		serial, _ := run(t, src, facts, DefaultConfig())
		for _, workers := range []int{2, 4} {
			parCfg := DefaultConfig()
			parCfg.Workers = workers
			parallel, _ := run(t, src, facts, parCfg)
			requireSame(t, fmt.Sprintf("trial %d/workers=%d", trial, workers), serial, parallel, rels...)
		}
	}
}

// TestParallelMatchesSerialGraphs runs the shard property inputs on the
// workers axis: chain, grid, random and star (one leading key) graphs, btree
// and brie, the arity-3 hop program (secondary orders not led by column 0),
// raw and optimized translation (the optimizer introduces choices), and a
// nullary flag gating recursion — at 2 and 4 workers, byte-identical to
// serial evaluation. The eqrel + aggregate mix is TestParallelMatchesSerial.
func TestParallelMatchesSerialGraphs(t *testing.T) {
	exec := func(t *testing.T, src string, facts map[string][]tuple.Tuple, optimize bool, workers int) *Engine {
		rp, st := compileSrc(t, src)
		if optimize {
			ramopt.Optimize(rp, st, ramopt.Queryable())
		}
		cfg := DefaultConfig()
		cfg.Workers = workers
		eng := New(rp, st, cfg)
		io := NewMemIO()
		for name, ts := range facts {
			for _, tp := range ts {
				io.Add(name, tp)
			}
		}
		if err := eng.Run(io); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return eng
	}
	check := func(t *testing.T, label, src string, facts map[string][]tuple.Tuple, rels ...string) {
		for _, optimize := range []bool{false, true} {
			want := exec(t, src, facts, optimize, 1)
			for _, workers := range []int{2, 4} {
				got := exec(t, src, facts, optimize, workers)
				requireSame(t, fmt.Sprintf("%s/optimize=%v/workers=%d", label, optimize, workers), want, got, rels...)
			}
		}
	}

	graphs := shardGraphs(48, 7)
	var star []tuple.Tuple
	for i := 1; i <= 40; i++ {
		star = append(star, tuple.Tuple{0, value.Value(i)}, tuple.Tuple{value.Value(i), value.Value(i + 40)})
	}
	graphs["star"] = star
	for _, rep := range []string{"btree", "brie"} {
		for name, edges := range graphs {
			facts := map[string][]tuple.Tuple{"edge": edges}
			check(t, "tc/"+rep+"/"+name, shardTCSrc(rep), facts, "path", "node", "unreached")
			check(t, "hop/"+rep+"/"+name, shardShapeSrc(rep), facts, "hop", "viaMid", "viaEnd", "lone", "has", "deg", "cross")
		}
	}

	var chain []tuple.Tuple
	for i := 0; i < 12; i++ {
		chain = append(chain, tuple.Tuple{value.Value(i), value.Value(i + 1)})
	}
	check(t, "nullary", `
.decl edge(x:number, y:number)
.decl path(x:number, y:number)
.decl go()
.decl done()
.input edge
go() :- edge(_, _).
path(x, y) :- edge(x, y), go().
path(x, z) :- path(x, y), edge(y, z).
done() :- path(0, 5).
`, map[string][]tuple.Tuple{"edge": chain}, "path", "go", "done")
}

// TestParallelStress oversubscribes the scheduler (twice the CPUs) on
// randomized graphs through the full feature mix — recursion, negation,
// aggregates, eqrel — and demands byte-identical results with serial
// evaluation. Run under -race it doubles as the proof that staged inserts
// leave no shared mutable state between workers.
func TestParallelStress(t *testing.T) {
	src := `
.decl edge(x:number, y:number)
.decl path(x:number, y:number)
.decl node(x:number)
.decl unreached(x:number)
.decl deg(x:number, n:number)
.decl eq(x:number, y:number) eqrel
.input edge
node(x) :- edge(x, _).
node(y) :- edge(_, y).
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
unreached(x) :- node(x), !path(0, x).
deg(x, n) :- node(x), n = count : { edge(x, _) }.
eq(x, y) :- edge(x, y), x < y.
`
	rels := []string{"path", "node", "unreached", "deg", "eq"}
	rng := rand.New(rand.NewSource(987))
	for trial := 0; trial < 4; trial++ {
		n := 60 + trial*30
		facts := map[string][]tuple.Tuple{}
		for i := 0; i < 6*n; i++ {
			facts["edge"] = append(facts["edge"],
				tuple.Tuple{value.Value(rng.Intn(n)), value.Value(rng.Intn(n))})
		}
		serial, _ := run(t, src, facts, DefaultConfig())
		parCfg := DefaultConfig()
		parCfg.Workers = 2 * runtime.NumCPU()
		parallel, _ := run(t, src, facts, parCfg)
		for _, r := range rels {
			a := tuplesOf(t, serial, r)
			b := tuplesOf(t, parallel, r)
			if len(a) != len(b) {
				t.Fatalf("trial %d relation %s: serial %d tuples, parallel %d", trial, r, len(a), len(b))
			}
			for i := range a {
				if tuple.Compare(a[i], b[i]) != 0 {
					t.Fatalf("trial %d relation %s differs at %d: %v vs %v", trial, r, i, a[i], b[i])
				}
			}
		}
	}
}

// TestFusedParallel: fused conditions are honoured under Workers > 1 and
// under sharding — the closures are stateless, so every worker context
// evaluates the same ones — and what the run stores and prints is
// byte-identical to serial, unfused evaluation. The program nests a fused
// filter under a partitioned scan (folded into the inner scan's loop), a
// mixed constraints-and-exists filter, a filtered aggregate, and a filter
// inside a recursive stratum. Run under -race it is the proof that the
// closures share no mutable state.
func TestFusedParallel(t *testing.T) {
	src := `
.decl n(x:number)
.decl edge(x:number, y:number)
.decl pair(a:number, b:number)
.decl picked(x:number)
.decl evens(x:number, c:number)
.decl reach(x:number, y:number)
.input n
.input edge
.output pair
.output picked
.output evens
.output reach
.printsize pair
.printsize reach
pair(a, b) :- n(a), n(b), b > a, (b - a) % 8 = 0, (b - a) / 8 < 6, (a band 3) = (b band 3), (a + b) % 3 != 1.
picked(x) :- n(x), x % 5 != 0, x > 10, edge(x, _), x < 180.
evens(x, c) :- n(x), x < 40, c = count : { edge(x, y), y % 2 = 0, y > x }.
reach(x, y) :- edge(x, y), x != y.
reach(x, z) :- reach(x, y), edge(y, z), z != x, (x + z) % 7 != 0.
`
	rng := rand.New(rand.NewSource(17))
	const nodes = 200
	facts := map[string][]tuple.Tuple{}
	for i := 0; i < nodes; i++ {
		facts["n"] = append(facts["n"], tuple.Tuple{value.Value(i)})
	}
	for i := 0; i < 3*nodes; i++ {
		facts["edge"] = append(facts["edge"], tuple.Tuple{value.Value(rng.Intn(nodes)), value.Value(rng.Intn(nodes))})
	}
	exec := func(cfg Config) *MemIO {
		_, m := run(t, src, facts, cfg)
		return m
	}
	base := DefaultConfig()
	base.FusedFilters = false
	want := exec(base)
	if len(want.Out["pair"]) == 0 || len(want.Out["picked"]) == 0 || len(want.Out["reach"]) == 0 {
		t.Fatalf("degenerate workload: %v", want.Sizes)
	}
	for _, workers := range []int{2, 4} {
		for _, shards := range []int{0, 2} {
			cfg := DefaultConfig()
			cfg.Workers, cfg.Shards = workers, shards
			if norm := cfg.normalize(); !norm.FusedFilters || norm.Workers != workers {
				t.Fatalf("normalize dropped fusion or workers: %+v", norm)
			}
			got := exec(cfg)
			if !reflect.DeepEqual(got.Out, want.Out) || !reflect.DeepEqual(got.Sizes, want.Sizes) {
				t.Errorf("workers=%d shards=%d: output differs from serial unfused (sizes %v vs %v)",
					workers, shards, got.Sizes, want.Sizes)
			}
		}
	}
}

// TestProfileParallel: profiling no longer forces serial execution. The
// per-context counters folded at query barriers must agree with a serial
// profiling run on work-proportional counters (iterations, inserts).
func TestProfileParallel(t *testing.T) {
	facts := map[string][]tuple.Tuple{}
	rng := rand.New(rand.NewSource(55))
	for i := 0; i < 300; i++ {
		facts["edge"] = append(facts["edge"],
			tuple.Tuple{value.Value(rng.Intn(60)), value.Value(rng.Intn(60))})
	}
	serCfg := DefaultConfig()
	serCfg.Profile = true
	serEng, _ := run(t, tcSrc, facts, serCfg)
	parCfg := DefaultConfig()
	parCfg.Profile = true
	parCfg.Workers = 4
	if parCfg.normalize().Workers != 4 {
		t.Fatal("profiling still forces serial execution")
	}
	parEng, _ := run(t, tcSrc, facts, parCfg)
	ser, par := serEng.Profile(), parEng.Profile()
	if ser == nil || par == nil {
		t.Fatal("missing profile")
	}
	sums := func(p *Profile) (iters, inserts uint64) {
		for _, r := range p.Rules {
			iters += r.Iterations
			inserts += r.Inserts
		}
		return
	}
	si, sn := sums(ser)
	pi, pn := sums(par)
	if si != pi {
		t.Fatalf("iterations: serial %d, parallel %d", si, pi)
	}
	if sn != pn {
		t.Fatalf("inserts: serial %d, parallel %d", sn, pn)
	}
	if par.TotalDispatches == 0 {
		t.Fatal("parallel profile counted no dispatches")
	}
}

// TestParallelRuntimeError: worker panics surface as ordinary errors.
func TestParallelRuntimeError(t *testing.T) {
	src := `
.decl n(x:number)
.decl out(x:number)
.input n
out(y) :- n(x), y = 100 / x.
`
	rp, st := compileSrc(t, src)
	cfg := DefaultConfig()
	cfg.Workers = 4
	eng := New(rp, st, cfg)
	io := NewMemIO()
	for i := 0; i < 50; i++ {
		io.Add("n", tuple.Tuple{value.Value(i)}) // includes 0
	}
	if err := eng.Run(io); err == nil {
		t.Fatal("division by zero not reported from parallel workers")
	}
}

// TestPartitionScanCoverage: partitions of a B-tree index cover every tuple
// exactly once.
func TestPartitionScanCoverage(t *testing.T) {
	rp, st := compileSrc(t, tcSrc)
	eng := New(rp, st, DefaultConfig())
	io := NewMemIO()
	const n = 5000
	for i := 0; i < n; i++ {
		io.Add("edge", tuple.Tuple{value.Value(i % 71), value.Value(i)})
	}
	if err := eng.Run(io); err != nil {
		t.Fatal(err)
	}
	idx := eng.Relation("edge").Primary()
	for _, parts := range [][]int{{2}, {4}, {7}} {
		seen := map[[2]value.Value]bool{}
		iters := relation.PartitionerOf(idx).PartitionScan(parts[0])
		for _, it := range iters {
			for {
				tp, ok := it.Next()
				if !ok {
					break
				}
				key := [2]value.Value{tp[0], tp[1]}
				if seen[key] {
					t.Fatalf("%d partitions: duplicate tuple %v", parts[0], tp)
				}
				seen[key] = true
			}
		}
		if len(seen) != idx.Size() {
			t.Fatalf("%d partitions covered %d of %d tuples", parts[0], len(seen), idx.Size())
		}
	}
}
