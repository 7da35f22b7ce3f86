package interp

import (
	"fmt"
	"strings"
	"testing"

	"sti/internal/ram"
	"sti/internal/ram/verify"
	"sti/internal/relation"
	"sti/internal/symtab"
	"sti/internal/tuple"
	"sti/internal/value"
)

// TestMaxAritySpecialized: a 16-column relation exercises the largest
// pre-instantiated factory entry end to end.
func TestMaxAritySpecialized(t *testing.T) {
	var cols, vars []string
	for i := 0; i < relation.MaxArity; i++ {
		cols = append(cols, fmt.Sprintf("c%d:number", i))
		vars = append(vars, fmt.Sprintf("v%d", i))
	}
	src := fmt.Sprintf(`
.decl wide(%[1]s)
.decl out(%[1]s)
.input wide
.output out
out(%[2]s) :- wide(%[2]s), v0 < v15.
`, strings.Join(cols, ", "), strings.Join(vars, ", "))

	facts := map[string][]tuple.Tuple{}
	for r := 0; r < 10; r++ {
		tup := make(tuple.Tuple, relation.MaxArity)
		for i := range tup {
			tup[i] = value.Value(r*16 + i)
		}
		facts["wide"] = append(facts["wide"], tup)
		rev := make(tuple.Tuple, relation.MaxArity)
		for i := range rev {
			rev[i] = value.Value(1000 - r*16 - i)
		}
		facts["wide"] = append(facts["wide"], rev)
	}
	eng, _ := run(t, src, facts, DefaultConfig())
	got := tuplesOf(t, eng, "out")
	if len(got) != 10 {
		t.Fatalf("out has %d tuples (ascending rows only), want 10", len(got))
	}
}

// TestArityOverflowRejected: arity 17 must fail cleanly at engine build.
func TestArityOverflowRejected(t *testing.T) {
	var cols []string
	for i := 0; i <= relation.MaxArity; i++ {
		cols = append(cols, fmt.Sprintf("c%d:number", i))
	}
	src := fmt.Sprintf(".decl toowide(%s)\n", strings.Join(cols, ", "))
	rp, st := compileSrc(t, src)
	defer func() {
		if recover() == nil {
			t.Fatal("arity 17 engine construction did not panic")
		}
	}()
	New(rp, st, DefaultConfig())
}

// TestThreeIndexRelation: three mutually incomparable search signatures
// force three indexes; insert/search/swap must keep them consistent.
func TestThreeIndexRelation(t *testing.T) {
	src := `
.decl f(a:number, b:number, c:number)
.decl qa(x:number)
.decl qb(x:number)
.decl qc(x:number)
.decl ra(a:number, b:number, c:number)
.decl rb(a:number, b:number, c:number)
.decl rc(a:number, b:number, c:number)
.input f
.input qa
.input qb
.input qc
ra(a, b, c) :- qa(a), f(a, b, c).
rb(a, b, c) :- qb(b), f(a, b, c).
rc(a, b, c) :- qc(c), f(a, b, c).
`
	facts := map[string][]tuple.Tuple{
		"qa": {{1}}, "qb": {{2}}, "qc": {{3}},
	}
	for a := value.Value(0); a < 6; a++ {
		for b := value.Value(0); b < 6; b++ {
			facts["f"] = append(facts["f"], tuple.Tuple{a, b, (a + b) % 6})
		}
	}
	eng, _ := run(t, src, facts, DefaultConfig())
	if eng.Relation("f").NumIndexes() < 3 {
		t.Fatalf("f has %d indexes, want >= 3", eng.Relation("f").NumIndexes())
	}
	if n := len(tuplesOf(t, eng, "ra")); n != 6 {
		t.Fatalf("ra = %d", n)
	}
	if n := len(tuplesOf(t, eng, "rb")); n != 6 {
		t.Fatalf("rb = %d", n)
	}
	if n := len(tuplesOf(t, eng, "rc")); n != 6 {
		t.Fatalf("rc = %d", n)
	}
}

// TestSpecializedOpCoverage: every generic scan-family opcode specializes
// for every supported arity, and the specialized opcodes are all distinct.
func TestSpecializedOpCoverage(t *testing.T) {
	generics := []opcode{
		opInsert, opExists, opScan, opChoice, opAggregate,
	}
	seen := map[opcode]bool{}
	for _, g := range generics {
		for arity := 1; arity <= relation.MaxArity; arity++ {
			sp, ok := specializedOp(g, arity)
			if !ok {
				t.Fatalf("no specialization for op %d arity %d", g, arity)
			}
			if sp < opSpecializedBase {
				t.Fatalf("specialized op %d below base", sp)
			}
			if seen[sp] {
				t.Fatalf("specialized opcode %d assigned twice", sp)
			}
			seen[sp] = true
		}
		if _, ok := specializedOp(g, 0); ok {
			t.Fatalf("arity 0 specialized for op %d", g)
		}
		if _, ok := specializedOp(g, relation.MaxArity+1); ok {
			t.Fatalf("arity %d specialized for op %d", relation.MaxArity+1, g)
		}
	}
	if len(seen) != len(generics)*relation.MaxArity {
		t.Fatalf("coverage %d, want %d", len(seen), len(generics)*relation.MaxArity)
	}
}

// TestRecursiveAggregateOverLowerStratum: aggregates read relations from an
// earlier stratum inside a recursive stratum.
func TestRecursiveAggregateOverLowerStratum(t *testing.T) {
	src := `
.decl weight(x:number, w:number)
.decl seed(x:number)
.decl grow(x:number)
.input weight
.input seed
grow(x) :- seed(x).
grow(y) :- grow(x), y = x + 1, y <= m, m = max w : { weight(_, w) }.
`
	facts := map[string][]tuple.Tuple{
		"weight": {{0, 5}, {1, 3}},
		"seed":   {{1}},
	}
	eng, _ := run(t, src, facts, DefaultConfig())
	wantTuples(t, tuplesOf(t, eng, "grow"), [][]value.Value{{1}, {2}, {3}, {4}, {5}})
}

// TestDeepRecursionStack: a 20k-deep derivation chain must not overflow
// anything (iterative fixpoint, not recursion-per-tuple).
func TestDeepRecursionStack(t *testing.T) {
	src := `
.decl next(x:number, y:number)
.decl reach(x:number)
.input next
reach(0).
reach(y) :- reach(x), next(x, y).
`
	var nexts []tuple.Tuple
	const n = 20000
	for i := 0; i < n; i++ {
		nexts = append(nexts, tuple.Tuple{value.Value(i), value.Value(i + 1)})
	}
	eng, _ := run(t, src, map[string][]tuple.Tuple{"next": nexts}, DefaultConfig())
	if got := eng.Relation("reach").Size(); got != n+1 {
		t.Fatalf("reach = %d, want %d", got, n+1)
	}
}

// TestEmptyInputRelations: rules over empty inputs derive nothing and the
// emptiness guards keep loops cheap.
func TestEmptyInputRelations(t *testing.T) {
	eng, _ := run(t, tcSrc, nil, DefaultConfig())
	if eng.Relation("path").Size() != 0 {
		t.Fatal("path nonempty on empty edge")
	}
	cfg := DefaultConfig()
	cfg.Profile = true
	eng2, _ := run(t, tcSrc, nil, cfg)
	for _, r := range eng2.Profile().Rules {
		if r.Iterations != 0 {
			t.Fatalf("rule %q iterated %d times over empty inputs", r.Label, r.Iterations)
		}
	}
}

// TestSubtractNeedsDeleter: a SUBTRACT whose target cannot delete tuples is
// refused when its tree is generated — by New for Main, by the first
// EvalDelete for the delete program — with an error naming the relation and
// its representation; nothing is left to panic per tuple. The RAM verifier
// has the same rule (delete-target) and is switched off here so the
// generator's own refusal is what is observed.
func TestSubtractNeedsDeleter(t *testing.T) {
	defer verify.SetDebug(verify.Debugging())
	verify.SetDebug(false)
	eq := func(id int, name string) *ram.Relation {
		return &ram.Relation{ID: id, BaseID: id, Name: name, Arity: 2, Rep: ram.RepEqRel}
	}
	same, gone := eq(0, "same"), eq(1, "gone")
	subtract := &ram.Subtract{Dst: same, Src: gone}
	wantRefusal := func(err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "same") || !strings.Contains(err.Error(), "eqrel") {
			t.Fatalf("error = %v, want a refusal naming relation same and eqrel", err)
		}
	}

	inMain := &ram.Program{Relations: []*ram.Relation{same, gone}, Main: &ram.Sequence{Stmts: []ram.Statement{subtract}}}
	wantRefusal(New(inMain, symtab.New(), DefaultConfig()).Run(nil))

	inDelete := &ram.Program{Relations: []*ram.Relation{same, gone}, Main: &ram.Sequence{}, Delete: subtract}
	eng := New(inDelete, symtab.New(), DefaultConfig())
	if err := eng.Run(nil); err != nil {
		t.Fatalf("Run of a program whose Main deletes nothing: %v", err)
	}
	wantRefusal(eng.EvalDelete())
	// The program is ill-formed for this engine: nothing runs afterwards.
	wantRefusal(eng.Store(nil))

	// The same statement over B-tree relations generates and runs.
	same.Rep, gone.Rep = ram.RepBTree, ram.RepBTree
	eng = New(inDelete, symtab.New(), DefaultConfig())
	if err := eng.Run(nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.EvalDelete(); err != nil {
		t.Fatalf("SUBTRACT over btree relations: %v", err)
	}
}
