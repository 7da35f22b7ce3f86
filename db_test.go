package sti

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sti/internal/ram/verify"
)

// tcProgram builds the transitive-closure fixture with a configurable
// representation for the recursive relation.
func tcProgram(t *testing.T, rep string) *Program {
	t.Helper()
	p, err := Parse(tcRepSource(rep))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func tcRepSource(rep string) string {
	return fmt.Sprintf(`
.decl edge(x:number, y:number)
.decl path(x:number, y:number) %s
.input edge
.output path
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
`, rep)
}

// runUnion evaluates the program from scratch on the union of all edges
// and returns the path rows, for comparison against the resident engine.
func runUnion(t *testing.T, p *Program, edges [][2]int) [][]any {
	t.Helper()
	in := p.NewInput()
	for _, e := range edges {
		in.Add("edge", e[0], e[1])
	}
	res, err := p.Run(in)
	if err != nil {
		t.Fatalf("one-shot run: %v", err)
	}
	return res.Rows("path")
}

// checkEquivalent asserts the resident database and a from-scratch run on
// the accumulated edge set produce byte-identical path relations.
func checkEquivalent(t *testing.T, db *Database, p *Program, edges [][2]int, tag string) {
	t.Helper()
	want := runUnion(t, p, edges)
	got, err := db.Query("path")
	if err != nil {
		t.Fatalf("%s: query: %v", tag, err)
	}
	if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
		t.Fatalf("%s: resident path (%d rows) differs from one-shot run (%d rows)\nresident: %v\none-shot: %v",
			tag, len(got), len(want), got, want)
	}
}

func applyEdges(t *testing.T, db *Database, edges [][2]int) {
	t.Helper()
	b := db.NewBatch()
	for _, e := range edges {
		b.Add("edge", e[0], e[1])
	}
	if err := db.Apply(b); err != nil {
		t.Fatalf("apply: %v", err)
	}
}

// Edge workloads: a chain, a grid, dense strongly connected components, and
// a pseudo-random sparse graph.
func chainEdges(n int) [][2]int {
	var out [][2]int
	for i := 0; i < n; i++ {
		out = append(out, [2]int{i, i + 1})
	}
	return out
}

func gridEdges(n int) [][2]int {
	var out [][2]int
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if c+1 < n {
				out = append(out, [2]int{r*n + c, r*n + c + 1})
			}
			if r+1 < n {
				out = append(out, [2]int{r*n + c, (r+1)*n + c})
			}
		}
	}
	return out
}

// sccEdges builds comps strongly connected components of size nodes each:
// node i of a component links to i+1 and i+2 (mod size), and the last node
// of each component links to the first node of the next. Retracting an edge
// inside a component overdeletes every path through the component, and
// DRed rederives most of them over several rounds; retracting a bridge
// makes the paths across it die.
func sccEdges(comps, size int) [][2]int {
	var out [][2]int
	for c := 0; c < comps; c++ {
		base := c * size
		for i := 0; i < size; i++ {
			out = append(out, [2]int{base + i, base + (i+1)%size}, [2]int{base + i, base + (i+2)%size})
		}
		if c+1 < comps {
			out = append(out, [2]int{base + size - 1, base + size})
		}
	}
	return out
}

func randomEdges(n, nodes int, seed int64) [][2]int {
	rng := rand.New(rand.NewSource(seed))
	var out [][2]int
	for i := 0; i < n; i++ {
		out = append(out, [2]int{rng.Intn(nodes), rng.Intn(nodes)})
	}
	return out
}

// checkIncremental asserts every batch so far took the incremental path.
func checkIncremental(t *testing.T, db *Database, tag string) {
	t.Helper()
	if st := db.Stats(); st.AppliesIncremental != st.Applies || st.AppliesFallback != 0 {
		t.Fatalf("%s: every batch should be incremental: %+v", tag, st)
	}
}

// residentConfigs is the parallel axis of the resident property tests: the
// serial engine, the paper's §3 workers and hash shards, all of which keep
// the incremental path.
var residentConfigs = []struct {
	name string
	opt  Option
}{
	{"workers=1", WithWorkers(1)},
	{"workers=2", WithWorkers(2)},
	{"shards=2", WithShards(2)},
	{"shards=4", WithShards(4)},
}

// residentProgram is one point on the program axis of the resident
// property tests. facts maps a workload edge to the input facts it stands
// for: inserting or retracting the edge inserts or retracts all of them.
// outputs names the relations compared against a one-shot Run.
type residentProgram struct {
	name    string
	src     string
	facts   func(e [2]int) []fact
	outputs []string
}

// fact is one input fact of a resident property test.
type fact struct {
	rel  string
	args []any
}

// tcPrograms is the transitive closure, one program per representation of
// its recursive relation, named by the representation.
func tcPrograms(reps ...string) []residentProgram {
	var out []residentProgram
	for _, rep := range reps {
		out = append(out, residentProgram{
			name:    rep,
			src:     tcRepSource(rep),
			facts:   func(e [2]int) []fact { return []fact{{"edge", []any{e[0], e[1]}}} },
			outputs: []string{"path"},
		})
	}
	return out
}

// nonRecursivePrograms derive relations in non-recursive strata, whose
// tuples can have several derivations, premises from two inputs, or a
// program-text fact that keeps them alive after their rules stop firing.
var nonRecursivePrograms = []residentProgram{
	{
		// The served reachability program: recursive path, then a
		// non-recursive join with a second input.
		name: "reach",
		src: `
.decl edge(x:number, y:number)
.decl label(x:number, l:number)
.decl path(x:number, y:number)
.decl tagged(x:number, l:number)
.input edge
.input label
.output path
.output tagged
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
tagged(x, l) :- path(x, y), label(y, l).
`,
		facts: func(e [2]int) []fact {
			return []fact{{"edge", []any{e[0], e[1]}}, {"label", []any{e[1], (e[0] + e[1]) % 3}}}
		},
		outputs: []string{"path", "tagged"},
	},
	{
		// A self-join with a filter and a second rule into the same head: a
		// pair survives while any heap or the direct rule still derives it.
		name: "aliased",
		src: `
.decl p(a:number, h:number)
.decl aliased(a:number, b:number)
.input p
.output aliased
aliased(a, b) :- p(a, h), p(b, h), a < b.
aliased(a, b) :- p(a, b), a < b.
`,
		facts:   func(e [2]int) []fact { return []fact{{"p", []any{e[0], e[1] % 4}}} },
		outputs: []string{"aliased"},
	},
	{
		// Program-text facts in a derived relation that a later stratum
		// reads: hub(0) and hub(2) outlive every edge that also derives them.
		name: "facts",
		src: `
.decl edge(x:number, y:number)
.decl hub(x:number)
.decl spoke(x:number, y:number)
.input edge
.output hub
.output spoke
hub(0).
hub(2).
hub(x) :- edge(x, y).
spoke(x, y) :- hub(x), edge(y, x).
`,
		facts:   func(e [2]int) []fact { return []fact{{"edge", []any{e[0], e[1]}}} },
		outputs: []string{"hub", "spoke"},
	},
}

// pointsToProgram is the Andersen points-to program of the DOOP suite:
// vpt and hpt are mutually recursive through three-atom bodies, and the
// aliased self-join reads them from a later stratum. A workload edge (x, y)
// is the copy y = x; some edges also allocate, store or load.
var pointsToProgram = residentProgram{
	name: "points-to",
	src: `
.decl alloc(v:number, h:number)
.decl move(t:number, f:number)
.decl store(base:number, fld:number, from:number)
.decl load(to:number, base:number, fld:number)
.decl vpt(v:number, h:number)
.decl hpt(h:number, fld:number, g:number)
.decl aliased(a:number, b:number)
.input alloc
.input move
.input store
.input load
.output vpt
.output hpt
.output aliased
vpt(v, h) :- alloc(v, h).
vpt(t, h) :- move(t, f), vpt(f, h).
hpt(b, fld, g) :- store(base, fld, from), vpt(base, b), vpt(from, g).
vpt(t, g) :- load(t, base, fld), vpt(base, b), hpt(b, fld, g).
aliased(a, b) :- vpt(a, h), vpt(b, h), a < b.
`,
	facts: func(e [2]int) []fact {
		x, y := e[0], e[1]
		fs := []fact{{"move", []any{y, x}}}
		switch x % 4 {
		case 0:
			fs = append(fs, fact{"alloc", []any{x, 100 + x%5}})
		case 1:
			fs = append(fs, fact{"store", []any{x, (x + y) % 2, y}})
		case 2:
			fs = append(fs, fact{"load", []any{y, x, (x + y) % 2}})
		}
		return fs
	},
	outputs: []string{"vpt", "hpt", "aliased"},
}

// survivorsProgram exercises the overdelete survival test: path has two exit
// rules, one with permuted columns, so a retracted edge leaves its path alive
// while back still proves it; hub's wildcard exit rule is not one the test
// may use, since a head tuple does not determine the edge it came from.
var survivorsProgram = residentProgram{
	name: "survivors",
	src: `
.decl edge(x:number, y:number)
.decl back(x:number, y:number)
.decl path(x:number, y:number)
.decl hub(x:number)
.input edge
.input back
.output path
.output hub
path(x, y) :- edge(x, y).
path(y, x) :- back(x, y).
path(x, z) :- path(x, y), edge(y, z).
hub(x) :- edge(x, _).
hub(y) :- hub(x), back(x, y).
`,
	facts: func(e [2]int) []fact {
		fs := []fact{{"edge", []any{e[0], e[1]}}}
		if (e[0]+e[1])%3 == 0 {
			fs = append(fs, fact{"back", []any{e[1], e[0]}})
		}
		return fs
	},
	outputs: []string{"path", "hub"},
}

// residentWorkloads are the edge streams of the resident property tests: a
// chain, a grid, dense strongly connected components and a pseudo-random
// sparse graph.
func residentWorkloads() map[string][][2]int {
	return map[string][][2]int{
		"chain":  chainEdges(30),
		"grid":   gridEdges(5),
		"scc":    sccEdges(3, 6),
		"random": randomEdges(40, 15, 1),
	}
}

// factSet is the net input fact set a resident database should hold.
type factSet map[string]fact

func (s factSet) add(f fact)    { s[fmt.Sprint(f.rel, f.args)] = f }
func (s factSet) remove(f fact) { delete(s, fmt.Sprint(f.rel, f.args)) }

// checkOutputs asserts every output of rp in the resident database matches a
// one-shot Run over the net fact set, and that every batch so far took the
// incremental path.
func checkOutputs(t *testing.T, db *Database, p *Program, rp residentProgram, facts factSet, tag string) {
	t.Helper()
	in := p.NewInput()
	for _, f := range facts {
		in.Add(f.rel, f.args...)
	}
	res, err := p.Run(in)
	if err != nil {
		t.Fatalf("%s: one-shot run: %v", tag, err)
	}
	for _, name := range rp.outputs {
		got, err := db.Query(name)
		if err != nil {
			t.Fatalf("%s: query %s: %v", tag, name, err)
		}
		if want := res.Rows(name); fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
			t.Fatalf("%s: resident %s (%d rows) differs from one-shot run (%d rows)\nresident: %v\none-shot: %v",
				tag, name, len(got), len(want), got, want)
		}
	}
	checkIncremental(t, db, tag)
}

// openResident parses rp and opens a resident database on it.
func openResident(t *testing.T, rp residentProgram, opt Option) (*Program, *Database) {
	t.Helper()
	p, err := Parse(rp.src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	db, err := p.Open(opt)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return p, db
}

// TestIncrementalEquivalence is the core property test: applying edge
// batches to a resident database must yield exactly the relations a
// from-scratch Run on the union of the batches yields, after every batch,
// across programs (the transitive closure in every representation, and the
// non-recursive shapes), workload shapes and parallel configurations.
func TestIncrementalEquivalence(t *testing.T) {
	programs := append(tcPrograms("btree", "brie", "eqrel"), nonRecursivePrograms...)
	programs = append(programs, survivorsProgram)
	for _, rp := range programs {
		for wname, edges := range residentWorkloads() {
			t.Run(rp.name+"/"+wname, func(t *testing.T) {
				for _, cfg := range residentConfigs {
					t.Run(cfg.name, func(t *testing.T) {
						p, db := openResident(t, rp, cfg.opt)
						defer db.Close()
						if !db.Incremental() {
							t.Fatalf("%s should support incremental batches", rp.name)
						}
						facts := factSet{}
						const batch = 7
						for i := 0; i < len(edges); i += batch {
							b := db.NewBatch()
							for _, e := range edges[i:min(i+batch, len(edges))] {
								for _, f := range rp.facts(e) {
									b.Add(f.rel, f.args...)
									facts.add(f)
								}
							}
							if err := db.Apply(b); err != nil {
								t.Fatalf("apply: %v", err)
							}
							checkOutputs(t, db, p, rp, facts,
								fmt.Sprintf("%s/%s/%s after batch %d", rp.name, wname, cfg.name, i/batch))
						}
					})
				}
			})
		}
	}
}

// TestMultiStratumIncremental exercises restart variants that join fresh
// lower-stratum tuples against an already-saturated recursive stratum.
func TestMultiStratumIncremental(t *testing.T) {
	p := MustParse(`
.decl edge(x:number, y:number)
.decl path(x:number, y:number)
.decl node(x:number)
.decl reach2(x:number, y:number)
.input edge
.input node
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
reach2(x, z) :- path(x, y), path(y, z), node(z).
`)
	db, err := p.Open()
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()

	applyEdges(t, db, chainEdges(10))
	// A later batch adds only nodes: the reach2 stratum must pick up
	// old path ⨝ old path ⨝ fresh node derivations via its restart variant.
	b := db.NewBatch().Add("node", 5).Add("node", 9)
	if err := db.Apply(b); err != nil {
		t.Fatalf("apply nodes: %v", err)
	}
	in := p.NewInput()
	for _, e := range chainEdges(10) {
		in.Add("edge", e[0], e[1])
	}
	in.Add("node", 5)
	in.Add("node", 9)
	res, err := p.Run(in)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	got, err := db.Query("reach2")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", res.Rows("reach2")) {
		t.Fatalf("reach2 mismatch\nresident: %v\none-shot: %v", got, res.Rows("reach2"))
	}
	if st := db.Stats(); st.AppliesFallback != 0 {
		t.Fatalf("expected incremental applies only: %+v", st)
	}
}

// TestDeletionAppliesIncrementally checks a batch with deletions of a
// deletable program is correct (matches a run without the deleted facts)
// and absorbed through the delete program rather than a recompute.
func TestDeletionAppliesIncrementally(t *testing.T) {
	p := tcProgram(t, "btree")
	db, err := p.Open()
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	if !db.Deletable() {
		t.Fatal("transitive closure must be deletable")
	}

	applyEdges(t, db, chainEdges(10))
	// Cut the chain in the middle.
	if err := db.Apply(db.NewBatch().Delete("edge", 5, 6)); err != nil {
		t.Fatalf("delete: %v", err)
	}
	var remaining [][2]int
	for _, e := range chainEdges(10) {
		if e != [2]int{5, 6} {
			remaining = append(remaining, e)
		}
	}
	checkEquivalent(t, db, p, remaining, "after deletion")
	if st := db.Stats(); st.AppliesFallback != 0 || st.AppliesIncremental != 2 {
		t.Fatalf("deletion should stay incremental: %+v", st)
	}
	// Deleting a fact that was never added is a no-op.
	if err := db.Apply(db.NewBatch().Delete("edge", 100, 101)); err != nil {
		t.Fatalf("noop delete: %v", err)
	}
	checkEquivalent(t, db, p, remaining, "after noop deletion")
	// Mixed add/delete batches route through update then delete.
	b := db.NewBatch().Add("edge", 5, 6).Delete("edge", 1, 2)
	if err := db.Apply(b); err != nil {
		t.Fatalf("mixed batch: %v", err)
	}
	var mixed [][2]int
	for _, e := range chainEdges(10) {
		if e != [2]int{1, 2} {
			mixed = append(mixed, e)
		}
	}
	checkEquivalent(t, db, p, mixed, "after mixed batch")
	st := db.Stats()
	if st.AppliesFallback != 0 || st.AppliesIncremental != st.Applies {
		t.Fatalf("every apply should be incremental: %+v", st)
	}
	if st.FallbackReason != "" {
		t.Fatalf("no fallback happened, got reason %q", st.FallbackReason)
	}
}

// TestDeletionOfDerivedFallsBack checks a deletion naming a non-input
// relation loses the incremental path (derived tuples cannot be retracted
// directly) and records the reason, while the result stays correct.
func TestDeletionOfDerivedFallsBack(t *testing.T) {
	p := tcProgram(t, "btree")
	db, err := p.Open()
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	applyEdges(t, db, chainEdges(10))
	if err := db.Apply(db.NewBatch().Delete("path", 1, 2)); err != nil {
		t.Fatalf("derived delete: %v", err)
	}
	// The derived tuple is still derivable from the EDB: it survives.
	checkEquivalent(t, db, p, chainEdges(10), "after derived deletion")
	st := db.Stats()
	if st.AppliesFallback != 1 {
		t.Fatalf("derived deletion must fall back: %+v", st)
	}
	if !strings.Contains(st.FallbackReason, "not an input relation") {
		t.Fatalf("fallback reason = %q", st.FallbackReason)
	}
}

// TestNonMonotoneFallsBack checks programs with negation refuse the
// incremental path but stay correct through recomputation.
func TestNonMonotoneFallsBack(t *testing.T) {
	p := MustParse(`
.decl edge(x:number, y:number)
.decl path(x:number, y:number)
.decl unreachable(x:number, y:number)
.decl node(x:number)
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
unreachable(x, y) :- node(x), node(y), !path(x, y).
`)
	db, err := p.Open()
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	if db.Incremental() {
		t.Fatal("negation must disable incremental evaluation")
	}
	b := db.NewBatch().Add("node", 1).Add("node", 2).Add("node", 3).Add("edge", 1, 2)
	if err := db.Apply(b); err != nil {
		t.Fatalf("apply: %v", err)
	}
	got, err := db.Query("unreachable")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	// 1→2 reachable; every other ordered pair (incl. self-pairs) is not.
	if len(got) != 8 {
		t.Fatalf("unreachable rows = %v", got)
	}
	if st := db.Stats(); st.AppliesFallback != 1 || st.AppliesIncremental != 0 {
		t.Fatalf("non-monotone applies must recompute: %+v", st)
	}
}

// TestQueryPatternsAndScan covers bound-pattern lookups and first-column
// range scans on the resident database.
func TestQueryPatternsAndScan(t *testing.T) {
	p := tcProgram(t, "btree")
	db, err := p.Open()
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	applyEdges(t, db, chainEdges(10))

	// path(3, _): everything reachable from 3.
	rows, err := db.Query("path", 3, nil)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(rows) != 7 {
		t.Fatalf("path(3,_) rows = %v", rows)
	}
	for _, r := range rows {
		if r[0] != int32(3) {
			t.Fatalf("pattern not honored: %v", r)
		}
	}
	// Fully bound probe.
	rows, err = db.Query("path", 2, 9)
	if err != nil || len(rows) != 1 {
		t.Fatalf("path(2,9) = %v, %v", rows, err)
	}
	rows, err = db.Query("path", 9, 2)
	if err != nil || len(rows) != 0 {
		t.Fatalf("path(9,2) = %v, %v", rows, err)
	}
	// Range scan on the first attribute.
	rows, err = db.Scan("edge", 3, 5)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("edge scan [3,5] = %v", rows)
	}
	// Size.
	if n, err := db.Size("edge"); err != nil || n != 10 {
		t.Fatalf("size(edge) = %d, %v", n, err)
	}
	// Arity mismatch and unknown relations error cleanly.
	if _, err := db.Query("path", 1); err == nil {
		t.Fatal("expected arity error")
	}
	if _, err := db.Query("nope"); err == nil {
		t.Fatal("expected unknown-relation error")
	}
}

// TestDeterministicTupleOrder is the regression test for the documented
// contract: repeated reads, and reads from independently-built databases
// over the same facts, return rows in the identical primary-index order.
func TestDeterministicTupleOrder(t *testing.T) {
	edges := randomEdges(40, 15, 7)
	build := func(shuffleSeed int64) [][]any {
		p := tcProgram(t, "btree")
		db, err := p.Open()
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer db.Close()
		perm := rand.New(rand.NewSource(shuffleSeed)).Perm(len(edges))
		shuffled := make([][2]int, len(edges))
		for i, j := range perm {
			shuffled[i] = edges[j]
		}
		applyEdges(t, db, shuffled)
		rows, err := db.Query("path")
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		return rows
	}
	a := build(1)
	b := build(2)
	if fmt.Sprintf("%v", a) != fmt.Sprintf("%v", b) {
		t.Fatalf("tuple order depends on insertion order:\n%v\n%v", a, b)
	}
}

// TestBatchErrors checks conversion errors surface from Err and Apply and
// poison the whole batch.
func TestBatchErrors(t *testing.T) {
	p := tcProgram(t, "btree")
	db, err := p.Open()
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()

	b := db.NewBatch().Add("edge", 1, 2).Add("nosuch", 1)
	if b.Err() == nil {
		t.Fatal("unknown relation must set batch error")
	}
	if err := db.Apply(b); err == nil {
		t.Fatal("Apply must return the batch error")
	}
	if n, _ := db.Size("edge"); n != 0 {
		t.Fatal("failed batch must not apply partially")
	}
	if db.NewBatch().Add("edge", 1).Err() == nil {
		t.Fatal("arity mismatch must set batch error")
	}
	if db.NewBatch().Add("edge", "x", 2).Err() == nil {
		t.Fatal("type mismatch must set batch error")
	}
}

// TestApplyRefusesForeignBatch: a batch staged on one database interned its
// symbols in that database's table, so another database refuses it before
// logging it, and its epoch, WAL and reads are as they were.
func TestApplyRefusesForeignBatch(t *testing.T) {
	db, err := MustParse(persistSrc).Open(WithPersistence(t.TempDir()))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	other, err := MustParse(persistSrc).Open()
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer other.Close()
	if err := db.Apply(db.NewBatch().Add("edge", "a", "b")); err != nil {
		t.Fatalf("apply: %v", err)
	}
	want := queryAll(t, db)
	epoch, records := db.Epoch(), db.Stats().Persist.WALRecords
	if err := db.Apply(other.NewBatch().Add("edge", "p", "q").Add("edge", "q", "r")); err == nil {
		t.Fatal("a batch staged on another database was applied")
	}
	if db.Epoch() != epoch || db.Stats().Persist.WALRecords != records {
		t.Fatalf("refused batch moved the epoch %d -> %d or the WAL %d -> %d records",
			epoch, db.Epoch(), records, db.Stats().Persist.WALRecords)
	}
	if got := queryAll(t, db); got != want {
		t.Fatalf("refused batch changed the database:\n%s\nwant\n%s", got, want)
	}
}

// TestSnapshotSemantics checks epoch pinning, release discipline, and the
// closed-database behavior.
func TestSnapshotSemantics(t *testing.T) {
	p := tcProgram(t, "btree")
	db, err := p.Open()
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if db.Epoch() != 0 {
		t.Fatalf("fresh epoch = %d", db.Epoch())
	}
	applyEdges(t, db, chainEdges(3))
	s := db.Snapshot()
	if s.Epoch() != 1 {
		t.Fatalf("snapshot epoch = %d", s.Epoch())
	}
	if n, err := s.Size("path"); err != nil || n != 6 {
		t.Fatalf("snapshot size = %d, %v", n, err)
	}
	s.Release()
	s.Release() // no-op
	if _, err := s.Query("path"); err == nil {
		t.Fatal("released snapshot must refuse reads")
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := db.Query("path"); err == nil {
		t.Fatal("closed database must refuse reads")
	}
	if err := db.Apply(db.NewBatch().Add("edge", 9, 10)); err == nil {
		t.Fatal("closed database must refuse writes")
	}
}

// TestOpenRejectsUnsupportedOptions pins the option gate.
func TestOpenRejectsUnsupportedOptions(t *testing.T) {
	p := tcProgram(t, "btree")
	if _, err := p.Open(WithBackend(Compiled)); err == nil {
		t.Fatal("compiled backend must be rejected")
	}
	if _, err := p.Open(WithProvenance()); err == nil {
		t.Fatal("provenance must be rejected")
	}
}

// TestConcurrentQueryDuringApply is the -race satellite: readers hammer
// Query/Scan/Stats while a writer streams insert batches. Every read must
// observe a consistent fixpoint — for a chain workload, a path count that
// corresponds to some whole number of applied batches.
func TestConcurrentQueryDuringApply(t *testing.T) {
	p := tcProgram(t, "btree")
	db, err := p.Open(WithWorkers(2))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()

	const segments = 12
	// Chain of length n has n*(n+1)/2 paths; legal sizes are those of
	// prefixes of the chain, extended segment by segment.
	legal := map[int]bool{0: true}
	for s := 1; s <= segments; s++ {
		n := s * 4
		legal[n*(n+1)/2] = true
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				switch rng.Intn(3) {
				case 0:
					rows, err := db.Query("path")
					if err != nil {
						t.Errorf("query: %v", err)
						return
					}
					if !legal[len(rows)] {
						t.Errorf("observed partial fixpoint: %d path rows", len(rows))
						return
					}
				case 1:
					if _, err := db.Scan("path", 0, 10); err != nil {
						t.Errorf("scan: %v", err)
						return
					}
				case 2:
					st := db.Stats()
					if !legal[st.Relations["path"]] {
						t.Errorf("stats saw partial fixpoint: %+v", st)
						return
					}
				}
			}
		}(int64(r + 1))
	}
	edges := chainEdges(segments * 4)
	for s := 0; s < segments; s++ {
		applyEdges(t, db, edges[s*4:(s+1)*4])
	}
	close(done)
	wg.Wait()
	if n, err := db.Size("path"); err != nil || !legal[n] || n == 0 {
		t.Fatalf("final path size = %d, %v", n, err)
	}
}

// TestInterleavedDeleteEquivalence is the deletion property test: batches
// interleaving insertions and retractions against a resident database must
// match a from-scratch run on the net fact set after every batch, across
// programs, workload shapes and parallel configurations. eqrel is excluded
// by construction: union-find relations cannot attribute retractions, so
// such programs are not deletable.
func TestInterleavedDeleteEquivalence(t *testing.T) {
	programs := append(tcPrograms("btree", "brie"), nonRecursivePrograms...)
	programs = append(programs, pointsToProgram, survivorsProgram)
	for _, rp := range programs {
		for wname, edges := range residentWorkloads() {
			t.Run(rp.name+"/"+wname, func(t *testing.T) {
				for _, cfg := range residentConfigs {
					t.Run(cfg.name, func(t *testing.T) {
						p, db := openResident(t, rp, cfg.opt)
						defer db.Close()
						if !db.Deletable() {
							t.Fatalf("%s should support incremental deletion", rp.name)
						}
						rng := rand.New(rand.NewSource(99))
						var applied [][2]int
						facts := factSet{}
						next := 0
						for round := 0; next < len(edges); round++ {
							b := db.NewBatch()
							for k := 0; k < 5 && next < len(edges); k++ {
								e := edges[next]
								next++
								for _, f := range rp.facts(e) {
									b.Add(f.rel, f.args...)
									facts.add(f)
								}
								applied = append(applied, e)
							}
							// Every other round also retracts a few random edges
							// applied earlier (duplicates in the stream mean some
							// retractions are no-ops — that path must hold too).
							// Apply inserts before it deletes, so a retraction
							// wins over an insertion in the same batch.
							if round%2 == 1 {
								for k := 0; k < 3 && len(applied) > 0; k++ {
									e := applied[rng.Intn(len(applied))]
									for _, f := range rp.facts(e) {
										b.Delete(f.rel, f.args...)
										facts.remove(f)
									}
									applied = slices.DeleteFunc(applied, func(a [2]int) bool { return a == e })
								}
							}
							if err := db.Apply(b); err != nil {
								t.Fatalf("round %d: apply: %v", round, err)
							}
							checkOutputs(t, db, p, rp, facts,
								fmt.Sprintf("%s/%s/%s round %d", rp.name, wname, cfg.name, round))
						}
					})
				}
			})
		}
	}
}

// TestAuxLikeRelationNames: a program may declare relations named like the
// translator's companions of its other relations (testdata/aux_names.dl).
// They stay distinct relations: the translation verifies, Run matches the
// same program with those relations renamed, and a resident database
// absorbing insertions and retractions stays incremental and matches a
// one-shot run.
func TestAuxLikeRelationNames(t *testing.T) {
	src, err := os.ReadFile("testdata/aux_names.dl")
	if err != nil {
		t.Fatal(err)
	}
	p := MustParse(string(src))
	if err := verify.Check(p.ram, "test"); err != nil {
		t.Fatal(err)
	}
	rename := strings.NewReplacer("delta_path", "d_path", "new_path", "n_path", "recent_edge", "r_edge", "del_path", "x_path")
	renamed := MustParse(rename.Replace(string(src)))
	rp := residentProgram{
		name: "aux-names",
		src:  string(src),
		facts: func(e [2]int) []fact {
			fs := []fact{{"edge", []any{e[0], e[1]}}}
			if (e[0]+e[1])%3 == 0 {
				fs = append(fs, fact{"recent_edge", []any{e[1], e[0]}})
			}
			return fs
		},
		outputs: []string{"path", "delta_path", "new_path", "del_path"},
	}
	edges := randomEdges(40, 12, 3)
	in, inRenamed := p.NewInput(), renamed.NewInput()
	for _, e := range edges {
		for _, f := range rp.facts(e) {
			in.Add(f.rel, f.args...)
			inRenamed.Add(rename.Replace(f.rel), f.args...)
		}
	}
	res, err := p.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := renamed.Run(inRenamed)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range rp.outputs {
		got, exp := res.Rows(name), want.Rows(rename.Replace(name))
		if len(got) == 0 || fmt.Sprint(got) != fmt.Sprint(exp) {
			t.Fatalf("%s: %d rows, renamed program %d\n%v\n%v", name, len(got), len(exp), got, exp)
		}
	}

	// Batches of five insertions; every batch after the first also retracts
	// the edges of the batch before it.
	_, db := openResident(t, rp, WithWorkers(1))
	defer db.Close()
	if !db.Deletable() {
		t.Fatal("aux-names should support incremental deletion")
	}
	facts := factSet{}
	for i := 0; i < len(edges); i += 5 {
		b := db.NewBatch()
		for _, e := range edges[i:min(i+5, len(edges))] {
			for _, f := range rp.facts(e) {
				b.Add(f.rel, f.args...)
				facts.add(f)
			}
		}
		if i > 0 {
			for _, e := range edges[i-5 : i] {
				for _, f := range rp.facts(e) {
					b.Delete(f.rel, f.args...)
					facts.remove(f)
				}
			}
		}
		if err := db.Apply(b); err != nil {
			t.Fatalf("batch %d: apply: %v", i/5, err)
		}
		checkOutputs(t, db, p, rp, facts, fmt.Sprintf("aux-names batch %d", i/5))
	}
}

// TestPrefixScanDuringDeleteApply hammers the prefix-scan edge cases while
// a writer streams mixed insert/delete batches: within one pinned snapshot,
// an empty-prefix Query, a fully-bound (max-arity) probe of one of its
// rows, and a first-attribute ScanRange covering everything must agree.
func TestPrefixScanDuringDeleteApply(t *testing.T) {
	p := tcProgram(t, "btree")
	db, err := p.Open(WithWorkers(2))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	applyEdges(t, db, chainEdges(8))

	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				s := db.Snapshot()
				rows, err := s.Query("path") // empty prefix: all rows
				if err != nil {
					t.Errorf("query: %v", err)
					s.Release()
					return
				}
				if len(rows) > 0 {
					r0 := rows[0]
					hit, err := s.Query("path", r0[0], r0[1]) // max-arity prefix
					if err != nil || len(hit) != 1 {
						t.Errorf("bound probe of %v: %d rows, %v", r0, len(hit), err)
						s.Release()
						return
					}
				}
				all, err := s.Scan("path", 0, 1<<30)
				if err != nil || len(all) != len(rows) {
					t.Errorf("scan saw %d rows, query saw %d (%v)", len(all), len(rows), err)
					s.Release()
					return
				}
				s.Release()
			}
		}()
	}
	// The writer alternates growing the chain and cutting its tail edge.
	for i := 0; i < 30; i++ {
		if i%3 == 2 {
			if err := db.Apply(db.NewBatch().Delete("edge", 8+i, 9+i)); err != nil {
				t.Fatalf("delete batch %d: %v", i, err)
			}
		} else {
			if err := db.Apply(db.NewBatch().Add("edge", 8+i, 9+i)); err != nil {
				t.Fatalf("insert batch %d: %v", i, err)
			}
		}
	}
	close(done)
	wg.Wait()
	if st := db.Stats(); st.AppliesFallback != 0 {
		t.Fatalf("mixed stream should stay incremental: %+v", st)
	}
}

// TestSnapshotPinnedAcrossDeleteBatch pins a snapshot, lets a delete batch
// wait on it, and checks the snapshot's reads never observe the retraction
// until released.
func TestSnapshotPinnedAcrossDeleteBatch(t *testing.T) {
	p := tcProgram(t, "btree")
	db, err := p.Open()
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	applyEdges(t, db, chainEdges(4)) // 10 paths

	s := db.Snapshot()
	applied := make(chan error, 1)
	go func() {
		applied <- db.Apply(db.NewBatch().Delete("edge", 2, 3))
	}()
	for i := 0; i < 20; i++ {
		rows, err := s.Query("path")
		if err != nil {
			t.Fatalf("pinned query: %v", err)
		}
		if len(rows) != 10 {
			t.Fatalf("pinned snapshot saw the delete: %d rows", len(rows))
		}
		select {
		case <-applied:
			t.Fatal("delete batch completed while the snapshot was pinned")
		default:
		}
		time.Sleep(time.Millisecond)
	}
	s.Release()
	if err := <-applied; err != nil {
		t.Fatalf("apply after release: %v", err)
	}
	// Cutting 2->3 leaves paths within 0-1-2 and 3-4 only.
	rows, err := db.Query("path")
	if err != nil || len(rows) != 4 {
		t.Fatalf("post-release path rows = %d, %v", len(rows), err)
	}
	if st := db.Stats(); st.AppliesFallback != 0 || st.AppliesIncremental != st.Applies {
		t.Fatalf("delete batch should be incremental: %+v", st)
	}
}
