package compile_test

import (
	"math/rand"
	"sort"
	"testing"

	"sti/internal/ast2ram"
	"sti/internal/compile"
	"sti/internal/eio"
	"sti/internal/interp"
	"sti/internal/parser"
	"sti/internal/ram"
	"sti/internal/sema"
	"sti/internal/symtab"
	"sti/internal/tuple"
	"sti/internal/value"
)

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

func memIO(facts map[string][]tuple.Tuple) *eio.Mem {
	io := eio.NewMem()
	for name, ts := range facts {
		for _, tp := range ts {
			io.Add(name, tp)
		}
	}
	return io
}

func sorted(ts []tuple.Tuple) []tuple.Tuple {
	sort.Slice(ts, func(i, j int) bool { return tuple.Compare(ts[i], ts[j]) < 0 })
	return ts
}

const tcSrc = `
.decl edge(x:number, y:number)
.decl path(x:number, y:number)
.input edge
.output path
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
`

func TestTransitiveClosure(t *testing.T) {
	rp, st := compileSrc(t, tcSrc)
	m := compile.New(rp, st)
	io := eio.NewMem()
	for i := 0; i < 10; i++ {
		io.Add("edge", tuple.Tuple{value.Value(i), value.Value(i + 1)})
	}
	if err := m.Run(io); err != nil {
		t.Fatal(err)
	}
	ts, err := m.Tuples("path")
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 55 {
		t.Fatalf("path = %d tuples", len(ts))
	}
	if !m.Relation("path").Contains(tuple.Tuple{0, 10}) {
		t.Fatal("missing (0,10)")
	}
}

func TestRuntimeErrorSurfaces(t *testing.T) {
	rp, st := compileSrc(t, `
.decl n(x:number)
.decl out(x:number)
n(0).
out(y) :- n(x), y = 1 / x.
`)
	m := compile.New(rp, st)
	if err := m.Run(nil); err == nil {
		t.Fatal("division by zero not reported")
	}
}

// equivalence runs a program through both backends and compares all
// relations.
func equivalence(t *testing.T, src string, facts map[string][]tuple.Tuple) {
	t.Helper()
	rp1, st1 := compileSrc(t, src)
	eng := interp.New(rp1, st1, interp.DefaultConfig())
	if err := eng.Run(memIO(facts)); err != nil {
		t.Fatalf("interp run: %v", err)
	}
	rp2, st2 := compileSrc(t, src)
	m := compile.New(rp2, st2)
	if err := m.Run(memIO(facts)); err != nil {
		t.Fatalf("compile run: %v", err)
	}
	for _, rd := range rp1.Relations {
		if rd.IsAux() {
			continue
		}
		a, err := eng.Tuples(rd.Name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.Tuples(rd.Name)
		if err != nil {
			t.Fatal(err)
		}
		a, b = sorted(a), sorted(b)
		if len(a) != len(b) {
			t.Fatalf("relation %s: interp %d tuples, compiled %d", rd.Name, len(a), len(b))
		}
		for i := range a {
			if tuple.Compare(a[i], b[i]) != 0 {
				t.Fatalf("relation %s differs at %d: %v vs %v", rd.Name, i, a[i], b[i])
			}
		}
	}
}

func TestEquivalenceKitchenSink(t *testing.T) {
	src := `
.decl edge(x:number, y:number)
.decl path(x:number, y:number)
.decl node(x:number)
.decl unreached(x:number)
.decl deg(x:number, n:number)
.decl eq(x:number, y:number) eqrel
.decl trie(x:number, y:number) brie
.input edge
node(x) :- edge(x, _).
node(y) :- edge(_, y).
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
unreached(x) :- node(x), !path(1, x).
deg(x, n) :- node(x), n = count : { edge(x, _) }.
eq(x, y) :- edge(x, y), x < y.
trie(x, y) :- edge(x, y).
trie(x, z) :- trie(x, y), edge(y, z), z != x.
`
	facts := map[string][]tuple.Tuple{"edge": {
		{1, 2}, {2, 3}, {3, 4}, {4, 2}, {5, 6}, {6, 5}, {2, 7}, {7, 1},
	}}
	equivalence(t, src, facts)
}

func TestEquivalenceStringsAndAggregates(t *testing.T) {
	src := `
.decl w(s:symbol, n:number)
.decl out(s:symbol, n:number)
.decl best(n:number)
w("alpha", 3). w("beta", 5). w("gamma", 5).
out(cat(s, "-x"), n + strlen(s)) :- w(s, n).
best(m) :- m = max n : { w(_, n) }.
`
	equivalence(t, src, nil)
}

// TestEquivalenceRandomGraphs drives both backends over random graphs with
// a program mixing recursion, negation, and arithmetic.
func TestEquivalenceRandomGraphs(t *testing.T) {
	src := `
.decl edge(x:number, y:number)
.decl reach(x:number, y:number)
.decl far(x:number, y:number)
.decl weight(x:number, y:number, w:number)
.input edge
.input weight
reach(x, y) :- edge(x, y).
reach(x, z) :- reach(x, y), edge(y, z).
far(x, y) :- reach(x, y), !edge(x, y).
`
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5; trial++ {
		n := 8 + rng.Intn(8)
		var edges, weights []tuple.Tuple
		for i := 0; i < 2*n; i++ {
			a, b := value.Value(rng.Intn(n)), value.Value(rng.Intn(n))
			edges = append(edges, tuple.Tuple{a, b})
			weights = append(weights, tuple.Tuple{a, b, value.Value(rng.Intn(100))})
		}
		equivalence(t, src, map[string][]tuple.Tuple{"edge": edges, "weight": weights})
	}
}

func TestMultiIndexRelation(t *testing.T) {
	// Searches on both columns force two indexes on e.
	src := `
.decl e(x:number, y:number)
.decl a(x:number)
.decl b(x:number)
.decl fwd(x:number, y:number)
.decl bwd(x:number, y:number)
.input e
.input a
.input b
fwd(x, y) :- a(x), e(x, y).
bwd(x, y) :- b(y), e(x, y).
`
	facts := map[string][]tuple.Tuple{
		"e": {{1, 10}, {2, 20}, {1, 30}, {3, 10}},
		"a": {{1}},
		"b": {{10}},
	}
	equivalence(t, src, facts)
	rp, st := compileSrc(t, src)
	m := compile.New(rp, st)
	if err := m.Run(memIO(facts)); err != nil {
		t.Fatal(err)
	}
	fwd, _ := m.Tuples("fwd")
	bwd, _ := m.Tuples("bwd")
	if len(fwd) != 2 || len(bwd) != 2 {
		t.Fatalf("fwd=%v bwd=%v", fwd, bwd)
	}
}
