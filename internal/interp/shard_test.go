package interp

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"sti/internal/metrics"
	"sti/internal/ram"
	"sti/internal/ramopt"
	"sti/internal/tuple"
	"sti/internal/value"
)

// shardTCSrc is the transitive-closure mix used across the shard tests,
// parameterized over the relation representation (btree/brie).
func shardTCSrc(rep string) string {
	return fmt.Sprintf(`
.decl edge(x:number, y:number) %[1]s
.decl path(x:number, y:number) %[1]s
.decl node(x:number) %[1]s
.decl unreached(x:number) %[1]s
.input edge
node(x) :- edge(x, _).
node(y) :- edge(_, y).
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
unreached(x) :- node(x), !path(0, x).
`, rep)
}

// shardGraphs returns the three edge sets of the shard property tests:
// a chain, a grid, and a random graph.
func shardGraphs(n int, seed int64) map[string][]tuple.Tuple {
	graphs := map[string][]tuple.Tuple{}
	for i := 0; i < n-1; i++ {
		graphs["chain"] = append(graphs["chain"],
			tuple.Tuple{value.Value(i), value.Value(i + 1)})
	}
	side := 1
	for side*side < n {
		side++
	}
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			id := value.Value(r*side + c)
			if c+1 < side {
				graphs["grid"] = append(graphs["grid"], tuple.Tuple{id, id + 1})
			}
			if r+1 < side {
				graphs["grid"] = append(graphs["grid"], tuple.Tuple{id, value.Value((r+1)*side + c)})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 4*n; i++ {
		graphs["random"] = append(graphs["random"],
			tuple.Tuple{value.Value(rng.Intn(n)), value.Value(rng.Intn(n))})
	}
	return graphs
}

// requireSame asserts two engines computed byte-identical relations.
func requireSame(t *testing.T, label string, want, got *Engine, rels ...string) {
	t.Helper()
	for _, r := range rels {
		a := tuplesOf(t, want, r)
		b := tuplesOf(t, got, r)
		if len(a) != len(b) {
			t.Fatalf("%s relation %s: want %d tuples, got %d", label, r, len(a), len(b))
		}
		for i := range a {
			if tuple.Compare(a[i], b[i]) != 0 {
				t.Fatalf("%s relation %s differs at %d: %v vs %v", label, r, i, a[i], b[i])
			}
		}
	}
}

// TestShardedMatchesUnsharded is the shard property test: chain, grid, and
// random graphs, btree and brie representations, 1/2/4 shards — every
// configuration must produce byte-identical relations to the unsharded
// interpreter. The single-shard case proves the degenerate wrapper (routing
// machinery engaged, one partition) changes nothing.
func TestShardedMatchesUnsharded(t *testing.T) {
	programs := []struct {
		src  func(rep string) string
		rels []string
	}{
		{shardTCSrc, []string{"path", "node", "unreached"}},
		// hop is arity 3 with secondary indexes that do not lead with its
		// shard key: searches on them visit every shard, and its inserts
		// fill several orders of the index-major store slice.
		{shardShapeSrc, []string{"hop", "viaMid", "viaEnd", "lone", "has", "deg", "cross"}},
	}
	for _, prog := range programs {
		rels := prog.rels
		for _, rep := range []string{"btree", "brie"} {
			src := prog.src(rep)
			for name, edges := range shardGraphs(48, 7) {
				facts := map[string][]tuple.Tuple{"edge": edges}
				want, _ := run(t, src, facts, DefaultConfig())
				for _, shards := range []int{1, 2, 4} {
					cfg := DefaultConfig()
					cfg.Shards = shards
					got, _ := run(t, src, facts, cfg)
					requireSame(t, fmt.Sprintf("%s/%s/shards=%d", rep, name, shards), want, got, rels...)
					for _, r := range rels {
						rel := got.Relation(r)
						if !rel.Sharded() || rel.ShardCount() != shards {
							t.Fatalf("%s/%s: relation %s not sharded into %d", rep, name, r, shards)
						}
						if err := rel.CheckShardLocal(); err != nil {
							t.Fatalf("%s/%s/shards=%d: %v", rep, name, shards, err)
						}
					}
					if hop := got.Relation("hop"); hop != nil {
						offKey := 0
						for i := 0; i < hop.NumIndexes(); i++ {
							if hop.Index(i).Order()[0] != hop.ShardKeyCol() {
								offKey++
							}
						}
						if hop.NumIndexes() < 2 || offKey == 0 {
							t.Fatalf("hop: %d indexes, %d not led by the shard key; want >= 2 and >= 1", hop.NumIndexes(), offKey)
						}
					}
				}
			}
		}
	}
}

// TestShardedSkewedKeys drives every tuple into a single shard: all source
// keys are identical, so the partition hash routes the whole workload to one
// partition. The fixpoint must still terminate with correct results (the
// other shards run empty scans and the consensus emptiness check must not
// exit early or spin).
func TestShardedSkewedKeys(t *testing.T) {
	src := shardTCSrc("btree")
	// A star from node 0: every derived path starts at 0, so path/delta
	// tuples all carry the same shard key.
	var edges []tuple.Tuple
	for i := 1; i <= 40; i++ {
		edges = append(edges, tuple.Tuple{0, value.Value(i)})
		edges = append(edges, tuple.Tuple{value.Value(i), value.Value(i + 40)})
	}
	facts := map[string][]tuple.Tuple{"edge": edges}
	want, _ := run(t, src, facts, DefaultConfig())
	cfg := DefaultConfig()
	cfg.Shards = 4
	got, _ := run(t, src, facts, cfg)
	requireSame(t, "skewed", want, got, "path", "node", "unreached")

	rel := got.Relation("path")
	if err := rel.CheckShardLocal(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedNullary: nullary relations carry no shard plan and must stay
// unsharded while the rest of the program shards, including when a nullary
// flag gates recursive derivation.
func TestShardedNullary(t *testing.T) {
	src := `
.decl edge(x:number, y:number)
.decl path(x:number, y:number)
.decl go()
.decl done()
.input edge
go() :- edge(_, _).
path(x, y) :- edge(x, y), go().
path(x, z) :- path(x, y), edge(y, z).
done() :- path(0, 5).
`
	var edges []tuple.Tuple
	for i := 0; i < 12; i++ {
		edges = append(edges, tuple.Tuple{value.Value(i), value.Value(i + 1)})
	}
	facts := map[string][]tuple.Tuple{"edge": edges}
	want, _ := run(t, src, facts, DefaultConfig())
	cfg := DefaultConfig()
	cfg.Shards = 3
	got, _ := run(t, src, facts, cfg)
	requireSame(t, "nullary", want, got, "path", "go", "done")

	if flag := got.Relation("go"); flag.Sharded() {
		t.Fatal("nullary relation must not shard")
	}
	if path := got.Relation("path"); !path.Sharded() {
		t.Fatal("path should shard")
	}
}

// TestShardedEqrelAndAggregates: the full feature mix (eqrel, negation,
// aggregates) under NumCPU shards. EqRel relations must stay unsharded;
// everything must match serial unsharded evaluation.
func TestShardedEqrelAndAggregates(t *testing.T) {
	src := `
.decl edge(x:number, y:number)
.decl path(x:number, y:number)
.decl node(x:number)
.decl deg(x:number, n:number)
.decl eq(x:number, y:number) eqrel
.input edge
node(x) :- edge(x, _).
node(y) :- edge(_, y).
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
deg(x, n) :- node(x), n = count : { edge(x, _) }.
eq(x, y) :- edge(x, y), x < y.
`
	rng := rand.New(rand.NewSource(55))
	var edges []tuple.Tuple
	for i := 0; i < 200; i++ {
		edges = append(edges, tuple.Tuple{value.Value(rng.Intn(50)), value.Value(rng.Intn(50))})
	}
	facts := map[string][]tuple.Tuple{"edge": edges}
	want, _ := run(t, src, facts, DefaultConfig())
	cfg := DefaultConfig()
	cfg.Shards = runtime.NumCPU()
	if cfg.Shards < 2 {
		cfg.Shards = 2
	}
	got, _ := run(t, src, facts, cfg)
	requireSame(t, "mix", want, got, "path", "node", "deg", "eq")

	if eq := got.Relation("eq"); eq.Sharded() {
		t.Fatal("eqrel relation must not shard")
	}
}

// TestShardMergeTelemetry: a sharded parallel run records shard merges,
// routed-tuple counts summing over shards, and (on multi-shard runs of a
// graph with mixed keys) a sane skew figure.
func TestShardMergeTelemetry(t *testing.T) {
	src := shardTCSrc("btree")
	facts := map[string][]tuple.Tuple{"edge": shardGraphs(40, 3)["random"]}
	cfg := DefaultConfig()
	cfg.Shards = 4
	_, rep := runWithTelemetry(t, src, facts, cfg)
	if rep.Parallel == nil || rep.Parallel.ShardMerges == 0 {
		t.Fatal("no shard merges recorded")
	}
	if len(rep.Parallel.ShardRouted) != 4 {
		t.Fatalf("ShardRouted has %d entries, want 4", len(rep.Parallel.ShardRouted))
	}
	var total uint64
	for _, n := range rep.Parallel.ShardRouted {
		total += n
	}
	if total == 0 {
		t.Fatal("no routed tuples recorded")
	}
	if rep.Parallel.ShardMaxSkew < 1 {
		t.Fatalf("ShardMaxSkew = %v, want >= 1", rep.Parallel.ShardMaxSkew)
	}

	// Index counters under sharding (DESIGN.md §3): the counting wrapper
	// sits on each sub-index, so an operation routed by the shard key counts
	// once, as unsharded, and a full scan, which fans out, once per shard.
	ops := func(shards int) map[string]metrics.IndexOpsView {
		cfg := DynamicAdapterConfig()
		cfg.Shards = shards
		_, rep := runWithTelemetry(t, src, facts, cfg)
		out := map[string]metrics.IndexOpsView{}
		for _, name := range []string{"edge", "path", "node"} {
			out[name] = relReport(t, rep, name).Indexes[0]
		}
		return out
	}
	flat, sharded := ops(0), ops(4)
	for name, f := range flat {
		s := sharded[name]
		if s.Inserts != f.Inserts || s.Fresh != f.Fresh || s.Lookups != f.Lookups || s.RangeScans != f.RangeScans {
			t.Errorf("%s: routed operations counted %+v under 4 shards, %+v unsharded", name, s, f)
		}
		if f.Scans == 0 || s.Scans != 4*f.Scans {
			t.Errorf("%s: %d scans under 4 shards, want 4 x the unsharded %d", name, s.Scans, f.Scans)
		}
	}
}

// shardShapeSrc exercises every scan-family instruction: full scans, index
// scans on several orders of an arity-3 relation (not all led by its shard
// key), existence checks, aggregates, and — after ramopt — choices. The
// second hop rule starts from an index scan, so it is never partitioned and
// its inserts go straight to the trees instead of a staging buffer.
func shardShapeSrc(rep string) string {
	return fmt.Sprintf(`
.decl edge(x:number, y:number) %[1]s
.decl hop(x:number, y:number, z:number) %[1]s
.decl viaMid(y:number, x:number) %[1]s
.decl viaEnd(z:number, x:number) %[1]s
.decl lone(x:number) %[1]s
.decl has(x:number) %[1]s
.decl deg(x:number, n:number) %[1]s
.decl cross(x:number, y:number) %[1]s
.input edge
cross(x, y) :- lone(x), has(y).
hop(x, y, z) :- edge(x, y), edge(y, z).
hop(y, 0, z) :- edge(0, y), edge(y, z).
viaMid(y, x) :- edge(_, y), hop(x, y, _).
viaEnd(z, x) :- edge(_, z), hop(x, _, z).
lone(x) :- edge(x, _), !hop(x, _, _).
has(x) :- edge(x, _), hop(_, x, _).
deg(x, n) :- edge(x, _), n = count : { hop(x, _, _) }.
`, rep)
}

// treeOps collects every node of the generated trees that accesses a
// relation's indexes, with its opcode, in generation order.
func treeOps(e *Engine) (ops []opcode, nodes []*inode) {
	e.walkRelational(func(n *inode) { ops, nodes = append(ops, n.op), append(nodes, n) })
	return ops, nodes
}

// TestShardedTreeShape: there is one static instruction family. Sharding a
// relation changes the stores a node binds, never its opcode — except for
// the order-sensitive instructions (choice, aggregate), which take the
// dynamic opcodes over sharded relations.
func TestShardedTreeShape(t *testing.T) {
	ordered := map[opcode]bool{opChoice: true, opIndexChoice: true, opAggregate: true, opIndexAggregate: true}
	for _, rep := range []string{"btree", "brie"} {
		for _, shards := range []int{1, 2, 4} {
			build := func(shards int) *Engine {
				rp, st := compileSrc(t, shardShapeSrc(rep))
				ramopt.Optimize(rp, st, ramopt.Queryable())
				cfg := DefaultConfig()
				cfg.Shards = shards
				// Same worker count on both sides: the partitioned outermost
				// scans are dynamic either way.
				cfg.Workers = 4
				return New(rp, st, cfg)
			}
			wantOps, wantNodes := treeOps(build(0))
			gotOps, gotNodes := treeOps(build(shards))
			if len(wantOps) != len(gotOps) || len(wantOps) == 0 {
				t.Fatalf("%s/shards=%d: %d relational nodes, unsharded has %d", rep, shards, len(gotOps), len(wantOps))
			}
			seen := map[string]int{}
			for i, n := range gotNodes {
				kind := fmt.Sprintf("%T", n.shadow)
				label := fmt.Sprintf("%s/shards=%d node %d (%s over %s)", rep, shards, i, kind, n.rel.Name)
				if want := fmt.Sprintf("%T", wantNodes[i].shadow); kind != want {
					t.Fatalf("%s: unsharded tree has %s here", label, want)
				}
				switch n.shadow.(type) {
				case *ram.Choice, *ram.IndexChoice, *ram.Aggregate:
					if n.rel.Sharded() {
						if !ordered[n.op] {
							t.Fatalf("%s: order-sensitive node carries static opcode %d", label, n.op)
						}
						seen["ordered"]++
						continue
					}
				}
				if n.op != wantOps[i] {
					t.Fatalf("%s: opcode %d, unsharded %d", label, n.op, wantOps[i])
				}
				if n.rel.Sharded() && n.op >= opInsertEq {
					seen[kind]++
				}
			}
			for _, kind := range []string{"ordered", "*ram.Project", "*ram.Scan", "*ram.IndexScan", "*ram.ExistenceCheck"} {
				if seen[kind] == 0 {
					t.Fatalf("%s/shards=%d: no %s node over a sharded relation on the static path (saw %v)", rep, shards, kind, seen)
				}
			}
		}
	}
}
