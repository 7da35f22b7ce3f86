package interp

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"sti/internal/ast2ram"
	"sti/internal/parser"
	"sti/internal/ram"
	"sti/internal/sema"
	"sti/internal/symtab"
	"sti/internal/tuple"
	"sti/internal/value"
)

// compile builds the RAM program for a source text.
func compileSrc(t testing.TB, src string) (*ram.Program, *symtab.Table) {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	an, errs := sema.Analyze(p)
	if len(errs) > 0 {
		t.Fatalf("sema: %v", errs)
	}
	st := symtab.New()
	rp, err := ast2ram.Translate(an, st)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	return rp, st
}

// run executes src with the given facts and config, returning the engine
// and its MemIO.
func run(t testing.TB, src string, facts map[string][]tuple.Tuple, cfg Config) (*Engine, *MemIO) {
	t.Helper()
	rp, st := compileSrc(t, src)
	eng := New(rp, st, cfg)
	io := NewMemIO()
	for name, ts := range facts {
		for _, tp := range ts {
			io.Add(name, tp)
		}
	}
	if err := eng.Run(io); err != nil {
		t.Fatalf("run: %v", err)
	}
	return eng, io
}

func tuplesOf(t testing.TB, eng *Engine, name string) []tuple.Tuple {
	t.Helper()
	ts, err := eng.Tuples(name)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(ts, func(i, j int) bool { return tuple.Compare(ts[i], ts[j]) < 0 })
	return ts
}

func wantTuples(t testing.TB, got []tuple.Tuple, want [][]value.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d tuples %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if tuple.Compare(got[i], want[i]) != 0 {
			t.Fatalf("tuple %d = %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
}

const tcSrc = `
.decl edge(x:number, y:number)
.decl path(x:number, y:number)
.input edge
.output path
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
`

func chainFacts(n int) map[string][]tuple.Tuple {
	var edges []tuple.Tuple
	for i := 0; i < n; i++ {
		edges = append(edges, tuple.Tuple{value.Value(i), value.Value(i + 1)})
	}
	return map[string][]tuple.Tuple{"edge": edges}
}

func TestTransitiveClosureChain(t *testing.T) {
	eng, io := run(t, tcSrc, chainFacts(10), DefaultConfig())
	// 10-chain: path has n*(n+1)/2 = 55 pairs.
	got := tuplesOf(t, eng, "path")
	if len(got) != 55 {
		t.Fatalf("path size = %d, want 55", len(got))
	}
	if len(io.Out["path"]) != 55 {
		t.Fatalf("output stored %d tuples", len(io.Out["path"]))
	}
	// Spot checks.
	rel := eng.Relation("path")
	if !rel.Contains(tuple.Tuple{0, 10}) || rel.Contains(tuple.Tuple{10, 0}) {
		t.Fatal("path contents wrong")
	}
}

func TestCycleTerminates(t *testing.T) {
	facts := map[string][]tuple.Tuple{"edge": {
		{1, 2}, {2, 3}, {3, 1},
	}}
	eng, _ := run(t, tcSrc, facts, DefaultConfig())
	got := tuplesOf(t, eng, "path")
	if len(got) != 9 {
		t.Fatalf("cyclic path size = %d, want 9", len(got))
	}
}

func TestGrandparentSymbols(t *testing.T) {
	src := `
.decl parent(a:symbol, b:symbol)
.decl gp(a:symbol, b:symbol)
.output gp
parent("Bob", "Alice").
parent("Alice", "Carol").
parent("Alice", "Dan").
gp(x, z) :- parent(x, y), parent(y, z).
`
	eng, _ := run(t, src, nil, DefaultConfig())
	got := tuplesOf(t, eng, "gp")
	if len(got) != 2 {
		t.Fatalf("gp = %v", got)
	}
	st := eng.SymbolTable()
	for _, g := range got {
		if st.Resolve(g[0]) != "Bob" {
			t.Fatalf("grandparent = %q", st.Resolve(g[0]))
		}
	}
	names := map[string]bool{}
	for _, g := range got {
		names[st.Resolve(g[1])] = true
	}
	if !names["Carol"] || !names["Dan"] {
		t.Fatalf("grandchildren = %v", names)
	}
}

func TestNegationSecurityAnalysis(t *testing.T) {
	// The paper's Fig 2 example.
	src := `
.decl Edge(x:symbol, y:symbol)
.decl Protect(x:symbol)
.decl Vulnerable(x:symbol)
.decl Unsafe(x:symbol)
.decl Violation(x:symbol)
.input Edge
.input Protect
.input Vulnerable
.output Violation
Unsafe("while").
Unsafe(y) :- Unsafe(x), Edge(x, y), !Protect(y).
Violation(x) :- Vulnerable(x), Unsafe(x).
`
	rp, st := compileSrc(t, src)
	eng := New(rp, st, DefaultConfig())
	io := NewMemIO()
	sym := func(s string) value.Value { return st.Intern(s) }
	edges := [][2]string{
		{"while", "a"}, {"a", "b"}, {"b", "c"}, {"a", "safe"}, {"safe", "d"},
	}
	for _, e := range edges {
		io.Add("Edge", tuple.Tuple{sym(e[0]), sym(e[1])})
	}
	io.Add("Protect", tuple.Tuple{sym("safe")})
	io.Add("Vulnerable", tuple.Tuple{sym("b")})
	io.Add("Vulnerable", tuple.Tuple{sym("d")})
	if err := eng.Run(io); err != nil {
		t.Fatal(err)
	}
	// unsafe: while, a, b, c (safe blocks propagation to d).
	unsafe := tuplesOf(t, eng, "Unsafe")
	if len(unsafe) != 4 {
		t.Fatalf("unsafe = %d tuples", len(unsafe))
	}
	violation := tuplesOf(t, eng, "Violation")
	if len(violation) != 1 || st.Resolve(violation[0][0]) != "b" {
		t.Fatalf("violation = %v", violation)
	}
}

func TestSameGeneration(t *testing.T) {
	src := `
.decl parent(x:number, y:number)
.decl sg(x:number, y:number)
.input parent
.output sg
sg(x, y) :- parent(p, x), parent(p, y), x != y.
sg(x, y) :- parent(px, x), sg(px, py), parent(py, y).
`
	// Two small trees: 1->{2,3}, 2->{4}, 3->{5}.
	facts := map[string][]tuple.Tuple{"parent": {
		{1, 2}, {1, 3}, {2, 4}, {3, 5},
	}}
	eng, _ := run(t, src, facts, DefaultConfig())
	got := tuplesOf(t, eng, "sg")
	wantTuples(t, got, [][]value.Value{{2, 3}, {3, 2}, {4, 5}, {5, 4}})
}

func TestArithmeticAndConstraints(t *testing.T) {
	src := `
.decl n(x:number)
.decl out(x:number, y:number)
.output out
n(1). n(2). n(3). n(4).
out(x, y) :- n(x), y = x * x + 1, x % 2 = 1.
`
	eng, _ := run(t, src, nil, DefaultConfig())
	got := tuplesOf(t, eng, "out")
	wantTuples(t, got, [][]value.Value{{1, 2}, {3, 10}})
}

func TestStringFunctors(t *testing.T) {
	src := `
.decl w(s:symbol)
.decl out(s:symbol, n:number)
.output out
w("ab").
w("xyz").
out(cat(s, "!"), strlen(s)) :- w(s).
`
	eng, _ := run(t, src, nil, DefaultConfig())
	st := eng.SymbolTable()
	got := tuplesOf(t, eng, "out")
	if len(got) != 2 {
		t.Fatalf("out = %v", got)
	}
	seen := map[string]int32{}
	for _, g := range got {
		seen[st.Resolve(g[0])] = value.AsInt(g[1])
	}
	if seen["ab!"] != 2 || seen["xyz!"] != 3 {
		t.Fatalf("out = %v", seen)
	}
}

func TestAggregates(t *testing.T) {
	src := `
.decl e(x:number, y:number)
.decl cnt(x:number, n:number)
.decl sm(x:number, n:number)
.decl mn(x:number, n:number)
.decl mx(x:number, n:number)
.decl node(x:number)
.output cnt
node(x) :- e(x, _).
cnt(x, n) :- node(x), n = count : { e(x, _) }.
sm(x, n) :- node(x), n = sum y : { e(x, y) }.
mn(x, n) :- node(x), n = min y : { e(x, y) }.
mx(x, n) :- node(x), n = max y : { e(x, y) }.
.input e
`
	facts := map[string][]tuple.Tuple{"e": {
		{1, 10}, {1, 20}, {1, 30}, {2, 5},
	}}
	eng, _ := run(t, src, facts, DefaultConfig())
	wantTuples(t, tuplesOf(t, eng, "cnt"), [][]value.Value{{1, 3}, {2, 1}})
	wantTuples(t, tuplesOf(t, eng, "sm"), [][]value.Value{{1, 60}, {2, 5}})
	wantTuples(t, tuplesOf(t, eng, "mn"), [][]value.Value{{1, 10}, {2, 5}})
	wantTuples(t, tuplesOf(t, eng, "mx"), [][]value.Value{{1, 30}, {2, 5}})
}

func TestEqrelClosure(t *testing.T) {
	src := `
.decl eq(x:number, y:number) eqrel
.decl link(x:number, y:number)
.decl q(x:number, y:number)
.input link
.output q
eq(x, y) :- link(x, y).
q(x, y) :- eq(x, y).
`
	facts := map[string][]tuple.Tuple{"link": {
		{1, 2}, {2, 3}, {10, 11},
	}}
	eng, _ := run(t, src, facts, DefaultConfig())
	q := tuplesOf(t, eng, "q")
	// Classes {1,2,3} and {10,11}: 9 + 4 = 13 pairs.
	if len(q) != 13 {
		t.Fatalf("q = %d tuples: %v", len(q), q)
	}
	if eng.Relation("eq").Size() != 13 {
		t.Fatalf("eq size = %d", eng.Relation("eq").Size())
	}
}

func TestEqrelRecursiveWithRules(t *testing.T) {
	// Equivalence grows through a recursive interaction with another
	// relation: if a~b then their successors are also equivalent.
	src := `
.decl succ(x:number, y:number)
.decl eq(x:number, y:number) eqrel
.input succ
.output eq
eq(1, 2).
eq(y1, y2) :- eq(x1, x2), succ(x1, y1), succ(x2, y2).
`
	facts := map[string][]tuple.Tuple{"succ": {
		{1, 10}, {2, 20}, {10, 100}, {20, 200},
	}}
	eng, _ := run(t, src, facts, DefaultConfig())
	eq := eng.Relation("eq")
	for _, pair := range [][2]value.Value{{1, 2}, {10, 20}, {100, 200}} {
		if !eq.Contains(tuple.Tuple{pair[0], pair[1]}) {
			t.Fatalf("missing equivalence %v (size %d)", pair, eq.Size())
		}
	}
	if eq.Contains(tuple.Tuple{1, 10}) {
		t.Fatal("phantom equivalence 1~10")
	}
}

func TestBrieRelation(t *testing.T) {
	src := `
.decl edge(x:number, y:number) brie
.decl path(x:number, y:number) brie
.input edge
.output path
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
`
	eng, _ := run(t, src, chainFacts(8), DefaultConfig())
	if got := tuplesOf(t, eng, "path"); len(got) != 36 {
		t.Fatalf("brie path = %d tuples", len(got))
	}
}

func TestNullaryRelations(t *testing.T) {
	src := `
.decl flag()
.decl n(x:number)
.decl out(x:number)
.output out
n(1). n(2).
flag() :- n(2).
out(x) :- n(x), flag().
`
	eng, _ := run(t, src, nil, DefaultConfig())
	wantTuples(t, tuplesOf(t, eng, "out"), [][]value.Value{{1}, {2}})
}

func TestMutualRecursion(t *testing.T) {
	src := `
.decl even(x:number)
.decl odd(x:number)
.decl succ(x:number, y:number)
.input succ
.output even
even(0).
odd(y) :- even(x), succ(x, y).
even(y) :- odd(x), succ(x, y).
`
	var succ []tuple.Tuple
	for i := 0; i < 20; i++ {
		succ = append(succ, tuple.Tuple{value.Value(i), value.Value(i + 1)})
	}
	eng, _ := run(t, src, map[string][]tuple.Tuple{"succ": succ}, DefaultConfig())
	evens := tuplesOf(t, eng, "even")
	if len(evens) != 11 {
		t.Fatalf("evens = %v", evens)
	}
	for _, e := range evens {
		if value.AsInt(e[0])%2 != 0 {
			t.Fatalf("odd number %v in even", e)
		}
	}
}

func TestWildcardAndExistence(t *testing.T) {
	src := `
.decl e(x:number, y:number)
.decl hasOut(x:number)
.decl sink(x:number)
.decl node(x:number)
.input e
.input node
.output sink
hasOut(x) :- e(x, _).
sink(x) :- node(x), !e(x, _).
`
	facts := map[string][]tuple.Tuple{
		"e":    {{1, 2}, {2, 3}},
		"node": {{1}, {2}, {3}},
	}
	eng, _ := run(t, src, facts, DefaultConfig())
	wantTuples(t, tuplesOf(t, eng, "sink"), [][]value.Value{{3}})
	wantTuples(t, tuplesOf(t, eng, "hasOut"), [][]value.Value{{1}, {2}})
}

func TestDuplicateVarInAtom(t *testing.T) {
	src := `
.decl e(x:number, y:number)
.decl selfloop(x:number)
.input e
.output selfloop
selfloop(x) :- e(x, x).
`
	facts := map[string][]tuple.Tuple{"e": {{1, 1}, {1, 2}, {3, 3}}}
	eng, _ := run(t, src, facts, DefaultConfig())
	wantTuples(t, tuplesOf(t, eng, "selfloop"), [][]value.Value{{1}, {3}})
}

func TestUnsignedAndFloatTypes(t *testing.T) {
	src := `
.decl u(x:unsigned)
.decl f(x:float)
.decl bigU(x:unsigned)
.decl posF(x:float)
.output bigU
.output posF
u(1u). u(4000000000u).
f(1.5). f(-2.5).
bigU(x) :- u(x), x > 100u.
posF(x) :- f(x), x > 0.0.
`
	eng, _ := run(t, src, nil, DefaultConfig())
	bigU := tuplesOf(t, eng, "bigU")
	if len(bigU) != 1 || bigU[0][0] != 4000000000 {
		t.Fatalf("bigU = %v", bigU)
	}
	posF := tuplesOf(t, eng, "posF")
	if len(posF) != 1 || value.AsFloat(posF[0][0]) != 1.5 {
		t.Fatalf("posF = %v", posF)
	}
}

func TestDivisionByZeroFails(t *testing.T) {
	src := `
.decl n(x:number)
.decl out(x:number)
n(0). n(1).
out(y) :- n(x), y = 10 / x.
`
	rp, st := compileSrc(t, src)
	eng := New(rp, st, DefaultConfig())
	err := eng.Run(NewMemIO())
	if err == nil {
		t.Fatal("division by zero not reported")
	}
	if _, ok := err.(*RuntimeError); !ok {
		t.Fatalf("error type %T", err)
	}
}

// configs enumerates the full lattice of the five ablation switches, plus
// legacy.
func configs() map[string]Config {
	out := map[string]Config{"legacy": LegacyConfig()}
	for i := 0; i < 32; i++ {
		c := Config{
			StaticDispatch:    i&1 != 0,
			SuperInstructions: i&2 != 0,
			StaticReordering:  i&4 != 0,
			LeanDispatch:      i&8 != 0,
			FusedFilters:      i&16 != 0,
		}
		out[fmt.Sprintf("sd%v_si%v_sr%v_ld%v_ff%v", c.StaticDispatch, c.SuperInstructions, c.StaticReordering, c.LeanDispatch, c.FusedFilters)] = c
	}
	return out
}

// TestConfigLatticeEquivalence: every interpreter variant computes identical
// relations on a program exercising recursion, negation, aggregates,
// strings, eqrel, and brie. Each eqrel search keying only column 1 (an
// existence check, a scan binding column 0, a negation, an aggregate) has a
// twin keying column 0 that must give the same rows.
func TestConfigLatticeEquivalence(t *testing.T) {
	src := `
.decl edge(x:number, y:number)
.decl path(x:number, y:number)
.decl node(x:number)
.decl unreached(x:number)
.decl deg(x:number, n:number)
.decl eq(x:number, y:number) eqrel
.decl trie(x:number, y:number) brie
.input edge
.output path
node(x) :- edge(x, _).
node(y) :- edge(_, y).
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
unreached(x) :- node(x), !path(1, x).
deg(x, n) :- node(x), n = count : { edge(x, _) }.
eq(x, y) :- edge(x, y), x < y.
trie(x, y) :- edge(x, y).
trie(x, z) :- trie(x, y), edge(y, z), z != x.
node(8).
.decl seen(x:number)
.decl seenTwin(x:number)
.decl peer(x:number, y:number)
.decl peerTwin(x:number, y:number)
.decl alone(x:number)
.decl aloneTwin(x:number)
.decl size(x:number, n:number)
.decl sizeTwin(x:number, n:number)
seen(x) :- node(x), eq(_, x).
seenTwin(x) :- node(x), eq(x, _).
peer(x, y) :- node(x), eq(y, x).
peerTwin(x, y) :- node(x), eq(x, y).
alone(x) :- node(x), !eq(_, x).
aloneTwin(x) :- node(x), !eq(x, _).
size(x, n) :- node(x), n = count : { eq(_, x) }.
sizeTwin(x, n) :- node(x), n = count : { eq(x, _) }.
`
	facts := map[string][]tuple.Tuple{"edge": {
		{1, 2}, {2, 3}, {3, 4}, {4, 2}, {5, 6}, {6, 5}, {2, 7}, {7, 1},
	}}
	type snapshot map[string][]tuple.Tuple
	var baseline snapshot
	var baseName string
	twins := []string{"seen", "peer", "alone", "size"}
	rels := []string{"path", "unreached", "deg", "eq", "trie", "node"}
	for _, r := range twins {
		rels = append(rels, r, r+"Twin")
	}
	for name, cfg := range configs() {
		eng, _ := run(t, src, facts, cfg)
		snap := snapshot{}
		for _, r := range rels {
			snap[r] = tuplesOf(t, eng, r)
		}
		for _, r := range twins {
			if len(snap[r]) == 0 || fmt.Sprint(snap[r]) != fmt.Sprint(snap[r+"Twin"]) {
				t.Fatalf("config %s: %s = %v, its twin %v", name, r, snap[r], snap[r+"Twin"])
			}
		}
		if baseline == nil {
			baseline, baseName = snap, name
			continue
		}
		for _, r := range rels {
			a, b := baseline[r], snap[r]
			if len(a) != len(b) {
				t.Fatalf("config %s: relation %s has %d tuples, %s has %d",
					name, r, len(b), baseName, len(a))
			}
			for i := range a {
				if tuple.Compare(a[i], b[i]) != 0 {
					t.Fatalf("config %s: relation %s differs at %d: %v vs %v",
						name, r, i, b[i], a[i])
				}
			}
		}
	}
}

func TestProfiler(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Profile = true
	eng, _ := run(t, tcSrc, chainFacts(30), cfg)
	prof := eng.Profile()
	if prof == nil {
		t.Fatal("no profile")
	}
	if prof.TotalDispatches == 0 {
		t.Fatal("no dispatches counted")
	}
	if len(prof.Rules) == 0 {
		t.Fatal("no rule records")
	}
	var iters uint64
	for _, r := range prof.Rules {
		iters += r.Iterations
	}
	if iters == 0 {
		t.Fatal("no iterations counted")
	}
	if prof.SuperSaved == 0 {
		t.Fatal("super-instructions saved no dispatches despite being enabled")
	}
	if prof.String() == "" {
		t.Fatal("empty profile rendering")
	}
}

// sccFacts is the edge set of comps strongly connected components of size
// nodes each: node i of a component links to i+1 and i+2 (mod size), and the
// last node of each component links to the first node of the next one.
func sccFacts(comps, size int) map[string][]tuple.Tuple {
	var edges []tuple.Tuple
	for c := 0; c < comps; c++ {
		base := c * size
		for i := 0; i < size; i++ {
			for _, step := range []int{1, 2} {
				edges = append(edges, tuple.Tuple{value.Value(base + i), value.Value(base + (i+step)%size)})
			}
		}
		if c+1 < comps {
			edges = append(edges, tuple.Tuple{value.Value(base + size - 1), value.Value(base + size)})
		}
	}
	return map[string][]tuple.Tuple{"edge": edges}
}

// TestRederiveCostsItsFrontier pins DRed's rederive loop to semi-naive cost.
// Cutting one edge inside a strongly connected component overdeletes every
// path through it, and nearly all of them rederive over several rounds;
// cutting a bridge makes the paths across it die. For
// linear transitive closure the rederive loop ([dred@0]) and the overdelete
// loop ([ddel@0]) run the same join from their frontiers, and every tuple
// enters each frontier once, so red_path ⊆ del_path bounds the rederive
// loop's scan iterations by the overdelete loop's.
func TestRederiveCostsItsFrontier(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Profile = true
	facts := sccFacts(4, 8)
	eng, _ := run(t, tcSrc, facts, cfg)
	cut := []tuple.Tuple{{0, 1}, {7, 8}, {16, 18}} // two inside components, one bridge
	if n, err := eng.DeleteFacts("edge", cut); err != nil || n != len(cut) {
		t.Fatalf("DeleteFacts = %d, %v", n, err)
	}
	if err := eng.EvalDelete(); err != nil {
		t.Fatal(err)
	}

	var kept []tuple.Tuple
	for _, e := range facts["edge"] {
		if !slices.ContainsFunc(cut, func(c tuple.Tuple) bool { return slices.Equal(c, e) }) {
			kept = append(kept, e)
		}
	}
	want, _ := run(t, tcSrc, map[string][]tuple.Tuple{"edge": kept}, DefaultConfig())
	if got, exp := tuplesOf(t, eng, "path"), tuplesOf(t, want, "path"); fmt.Sprint(got) != fmt.Sprint(exp) {
		t.Fatalf("path after delete: %d tuples, recompute %d", len(got), len(exp))
	}

	var over, red uint64
	for _, r := range eng.Profile().Rules {
		switch {
		case strings.HasSuffix(r.Label, "[ddel@0]"):
			over += r.Iterations
		case strings.HasSuffix(r.Label, "[dred@0]"):
			red += r.Iterations
		}
	}
	if over == 0 || red == 0 {
		t.Fatalf("overdelete loop iterated %d tuples, rederive loop %d: want both loops to run", over, red)
	}
	t.Logf("scan iterations: overdelete loop %d, rederive loop %d", over, red)
	if red > over {
		t.Fatalf("rederive loop iterated %d tuples, more than the overdelete loop's %d", red, over)
	}
}

// TestOverdeleteStopsAtSurvivors pins the overdelete phase to the tuples
// that lose their exit derivation. In a complete digraph every path(x, y)
// with x != y also has its edge, so retracting edge (a, b) threatens only
// path(a, b) and the two cycles path(a, a) and path(b, b) it shortens; the
// survival test keeps the overdelete variants from inserting the other
// n² − 3 paths, which all rederive (as do the three: every path survives).
func TestOverdeleteStopsAtSurvivors(t *testing.T) {
	const n, a, b = 20, 3, 7
	var edges []tuple.Tuple
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if x != y {
				edges = append(edges, tuple.Tuple{value.Value(x), value.Value(y)})
			}
		}
	}
	cfg := DefaultConfig()
	cfg.Profile = true
	eng, _ := run(t, tcSrc, map[string][]tuple.Tuple{"edge": edges}, cfg)
	if staged, err := eng.DeleteFacts("edge", []tuple.Tuple{{a, b}}); err != nil || staged != 1 {
		t.Fatalf("DeleteFacts = %d, %v", staged, err)
	}
	if err := eng.EvalDelete(); err != nil {
		t.Fatal(err)
	}
	if got := len(tuplesOf(t, eng, "path")); got != n*n {
		t.Fatalf("path holds %d tuples after the delete, want all %d", got, n*n)
	}
	var inserts uint64
	for _, r := range eng.Profile().Rules {
		if strings.Contains(r.Label, "[del@") || strings.Contains(r.Label, "[ddel@") {
			inserts += r.Inserts
		}
	}
	over, red := eng.DeleteCounts()
	t.Logf("overdelete variants inserted %d tuples; %d overdeleted, %d rederived", inserts, over, red)
	if inserts != 3 || over != 3 || red != 3 {
		t.Fatalf("overdelete variants inserted %d tuples, %d overdeleted, %d rederived; want 3 each, not O(n²) with n = %d", inserts, over, red, n)
	}
}

func TestSuperInstructionsReduceDispatches(t *testing.T) {
	facts := chainFacts(50)
	count := func(superOn bool) uint64 {
		cfg := DefaultConfig()
		cfg.SuperInstructions = superOn
		cfg.Profile = true
		eng, _ := run(t, tcSrc, facts, cfg)
		return eng.Profile().TotalDispatches
	}
	with, without := count(true), count(false)
	if with >= without {
		t.Fatalf("super-instructions did not reduce dispatches: %d vs %d", with, without)
	}
}

func TestDirIO(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "edge.facts"), []byte("1\t2\n2\t3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rp, st := compileSrc(t, tcSrc)
	eng := New(rp, st, DefaultConfig())
	io := &DirIO{InputDir: dir, OutputDir: dir, Symbols: st}
	if err := eng.Run(io); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "path.csv"))
	if err != nil {
		t.Fatal(err)
	}
	want := "1\t2\n1\t3\n2\t3\n"
	if string(data) != want {
		t.Fatalf("path.csv = %q, want %q", data, want)
	}
}

func TestDirIOErrors(t *testing.T) {
	dir := t.TempDir()
	rp, st := compileSrc(t, tcSrc)
	eng := New(rp, st, DefaultConfig())
	// Missing input file.
	if err := eng.Run(&DirIO{InputDir: dir, OutputDir: dir, Symbols: st}); err == nil {
		t.Fatal("missing facts file not reported")
	}
	// Wrong arity.
	if err := os.WriteFile(filepath.Join(dir, "edge.facts"), []byte("1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	eng2 := New(rp, st, DefaultConfig())
	if err := eng2.Run(&DirIO{InputDir: dir, OutputDir: dir, Symbols: st}); err == nil {
		t.Fatal("arity mismatch not reported")
	}
}

// TestRangeBoundScanCount: the inner scan of a moved_label-shaped rule over
// N distinct non-negative candidates visits only the candidates above the
// outer one, so the rule iterates N + N(N-1)/2 times instead of N + N², and
// the count repeats exactly. With the window `(b - a) / 8 < 48` the bound
// isolated from it (b <= a + 383) closes the scan from above as well. An
// outer candidate below zero could make b - a wrap, so there the isolated
// limit is the type's maximum and the scan keeps only its `b > a` bound, which
// straddles zero and so reads the whole relation. It holds for the static and
// the dynamic instructions and for the legacy store alike.
func TestRangeBoundScanCount(t *testing.T) {
	const rule = `
.decl candidate(a:number)
.decl moved_label(a:number, b:number)
.input candidate
.output moved_label
moved_label(a, b) :- candidate(a), candidate(b), b > a, (b - a) % 8 = 0`
	const n = 60
	// cands is n candidates step apart from lo.
	cands := func(lo, step int32) []tuple.Tuple {
		var ts []tuple.Tuple
		for i := int32(0); i < n; i++ {
			ts = append(ts, tuple.Tuple{value.FromInt(lo + step*i)})
		}
		return ts
	}
	for _, c := range []struct {
		name  string
		src   string
		cands []tuple.Tuple
		want  uint64
	}{
		{"b > a", rule + ".\n", cands(0, 2), n + n*(n-1)/2},
		// 0, 16, ..., 944: each a reaches the next min(23, n-1-i) candidates,
		// 37×23 + (22 + ... + 0) = 1104 inner iterations.
		{"window", rule + ", (b - a) / 8 < 48.\n", cands(0, 16), n + 1104},
		// -480, ..., 464: the 30 negative a read all 60 candidates, and the 30
		// non-negative ones 7×23 + (22 + ... + 0) = 414.
		{"window, negative a", rule + ", (b - a) / 8 < 48.\n", cands(-480, 16), n + 30*n + 414},
	} {
		dynamic := DefaultConfig()
		dynamic.StaticDispatch = false
		for name, cfg := range map[string]Config{"static": DefaultConfig(), "dynamic": dynamic, "legacy": LegacyConfig()} {
			cfg.Profile = true
			for rep := 0; rep < 2; rep++ {
				eng, _ := run(t, c.src, map[string][]tuple.Tuple{"candidate": c.cands}, cfg)
				var iters uint64
				for _, r := range eng.Profile().Rules {
					if strings.HasPrefix(r.Label, "moved_label(") {
						iters += r.Iterations
					}
				}
				if iters != c.want {
					t.Errorf("%s, %s run %d: moved_label iterated %d times, want %d", c.name, name, rep, iters, c.want)
				}
			}
		}
	}
}
