package sti

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"sti/internal/ast2ram"
	"sti/internal/parser"
	"sti/internal/ram/verify"
	"sti/internal/ramopt"
	"sti/internal/sema"
	"sti/internal/symtab"
)

// translateCase is one program of the translation property with its input:
// rows per input relation.
type translateCase struct {
	src   string
	facts map[string][][]any
}

// checkTranslate holds src to the translation property: if sema accepts it,
// ast2ram.Translate succeeds, the RAM verifier passes before and after the
// optimizer, and every engine computes the same rows for every relation:
// the interpreter, the compiled backend, and a resident database through
// Apply, after inserting the facts and after deleting every other one. It
// reports whether sema accepted src and, if so, the rows after both steps.
func checkTranslate(t testing.TB, tc translateCase) (rows string, accepted bool) {
	t.Helper()
	astProg, err := parser.Parse(tc.src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, tc.src)
	}
	semProg, errs := sema.Analyze(astProg)
	if len(errs) > 0 {
		return "", false
	}
	st := symtab.New()
	rp, err := ast2ram.Translate(semProg, st)
	if err != nil {
		t.Fatalf("sema accepts, translation fails: %v\n%s", err, tc.src)
	}
	if err := verify.Check(rp, "translate"); err != nil {
		t.Fatalf("%v\n%s", err, tc.src)
	}
	ramopt.Optimize(rp, st, ramopt.Queryable())
	if err := verify.Check(rp, "ramopt"); err != nil {
		t.Fatalf("%v\n%s", err, tc.src)
	}

	prog, err := Parse(tc.src)
	if err != nil {
		t.Fatal(err)
	}
	// The distinct facts, and every other one of them: what the delete
	// batch keeps.
	facts, kept := map[string][][]any{}, map[string][][]any{}
	for rel, rows := range tc.facts {
		seen := map[string]bool{}
		for _, r := range rows {
			if k := fmt.Sprint(r); !seen[k] {
				seen[k] = true
				if len(facts[rel])%2 == 1 {
					kept[rel] = append(kept[rel], r)
				}
				facts[rel] = append(facts[rel], r)
			}
		}
	}
	run := func(facts map[string][][]any, opts ...Option) string {
		in := prog.NewInput()
		for rel, rows := range facts {
			for _, r := range rows {
				in.Add(rel, r...)
			}
		}
		if err := in.Err(); err != nil {
			t.Fatal(err)
		}
		res, err := prog.Run(in, opts...)
		if err != nil {
			t.Fatalf("%v\n%s", err, tc.src)
		}
		return rowsOf(prog, res.Rows)
	}
	want, wantKept := run(facts), run(kept)
	if got := run(facts, WithBackend(Compiled)); got != want {
		t.Fatalf("compiled backend:\n got %s\nwant %s (interpreter)\n%s\n%s", got, want, tc.src, prog.RAM())
	}

	db, err := prog.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ins, del := db.NewBatch(), db.NewBatch()
	for rel, rows := range facts {
		for i, r := range rows {
			ins.Add(rel, r...)
			if i%2 == 0 {
				del.Delete(rel, r...)
			}
		}
	}
	for _, step := range []struct {
		name  string
		batch *Batch
		want  string
	}{{"insert", ins, want}, {"delete", del, wantKept}} {
		if err := db.Apply(step.batch); err != nil {
			t.Fatalf("%s: %v\n%s", step.name, err, tc.src)
		}
		s := db.Snapshot()
		got := rowsOf(prog, func(name string) [][]any {
			rows, err := s.Query(name)
			if err != nil {
				t.Fatal(err)
			}
			return rows
		})
		s.Release()
		if got != step.want {
			t.Fatalf("resident Apply (%s):\n got %s\nwant %s (interpreter)\n%s\n%s", step.name, got, step.want, tc.src, prog.RAM())
		}
	}
	return want + "| " + wantKept, true
}

// rowsOf renders every declared relation's rows.
func rowsOf(prog *Program, rows func(string) [][]any) string {
	var b strings.Builder
	for _, name := range prog.Relations() {
		fmt.Fprintf(&b, "%s=%v ", name, rows(name))
	}
	return b.String()
}

// atomRE matches one body atom of a boundProgram's body.
var atomRE = regexp.MustCompile(`\w+\([^()]*\)`)

// genExprProgram extends genBoundProgram's rule with argument expressions:
// one or two more atoms over a, b or c whose arguments are expressions over
// the rule's variables (the outer sides of the rule's type, x + 3, max(x, 0)
// and so on, or k ± 1 over the number column), a negation of one, or an
// aggregate (count, or sum, min or max of its local) whose one atom reads an
// expression over a local variable that only a body equality binds. Each
// goes at a random place among the atoms, so a variable it reads may be bound
// by an earlier atom or only by a later one.
func genExprProgram(rng *rand.Rand, brie, choice bool) translateCase {
	gp := genBoundProgram(rng, brie, choice)
	bt := boundTypes[gp.typ]
	atoms := atomRE.FindAllString(gp.body, -1)
	vars := []string{"x", "y"}
	if strings.Contains(gp.body, "c(z)") {
		vars = append(vars, "z")
	}
	expr := func() string {
		v := vars[rng.Intn(len(vars))]
		return outerVarRE.ReplaceAllString(bt.exprs[rng.Intn(len(bt.exprs))], v)
	}
	// agg renders n = AGG, or v = AGG over an outer variable v of the
	// aggregate's type: a filter on the aggregate's value.
	agg := func(n int) string {
		w := fmt.Sprintf("w%d", n)
		kinds := []string{"count", "sum", "min", "max"}
		if bt.name == "symbol" {
			kinds = kinds[:1] // only count produces a number from symbols
		}
		kind := kinds[rng.Intn(len(kinds))]
		res := fmt.Sprintf("n%d", n)
		if (kind != "count" || bt.name == "number") && rng.Intn(2) == 0 {
			res = vars[rng.Intn(len(vars))]
		}
		if kind != "count" {
			kind += " " + w
		}
		at := fmt.Sprintf([]string{"a(%s, _)", "b(%s, _)", "c(%s)"}[rng.Intn(3)],
			outerVarRE.ReplaceAllString(bt.exprs[rng.Intn(len(bt.exprs))], w))
		return fmt.Sprintf("%s = %s : { %s, %s = %s }", res, kind, at, w, expr())
	}
	for n := 1 + rng.Intn(2); n > 0; n-- {
		var lit string
		switch rng.Intn(6) {
		case 0:
			lit = fmt.Sprintf("c(%s)", expr())
		case 1:
			lit = fmt.Sprintf("a(%s, _)", expr())
		case 2:
			lit = fmt.Sprintf("b(%s, _)", expr())
		case 3:
			if strings.Contains(gp.body, "k") {
				lit = fmt.Sprintf("b(%s, k %s 1)", []string{"_", expr()}[rng.Intn(2)], []string{"+", "-"}[rng.Intn(2)])
			} else {
				lit = fmt.Sprintf("a(_, %d)", rng.Intn(3))
			}
		case 4:
			lit = fmt.Sprintf("!c(%s)", expr())
		default:
			lit = agg(n)
		}
		at := rng.Intn(len(atoms) + 1)
		atoms = append(atoms[:at], append([]string{lit}, atoms[at:]...)...)
	}
	src := fmt.Sprintf("%s%s :- %s, %s.\n", gp.decls, gp.head, strings.Join(atoms, ", "), strings.Join(gp.cmps, ", "))
	return translateCase{src: src, facts: map[string][][]any{"a": gp.a, "b": gp.b, "c": gp.c}}
}

// translateShapes are the argument-expression, aggregate-body and
// eqrel-search shapes that failed translation or gave wrong rows before the
// one atom binder and the one constraint placer handled them: an expression
// reading a variable that only a later atom binds, or that an earlier atom
// binds but that the update and delete variants rotate behind it; an
// expression over the atom's own variable, as an atom and in an aggregate
// body; an aggregate-body expression over a local that only a body equality
// binds; an eqrel searched on its second column only; an atom that binds
// and keys nothing.
var translateShapes = []string{
	"out(x) :- e(y+1, x), s(y).",
	"out(x) :- s(z), e(x, _).",
	"out(x) :- s(y), e(y+1, x).",
	"out(x) :- e(x, x+1).",
	"n(c) :- c = count : { e(x, x+1) }.",
	"n(c) :- s(z), c = count : { e(y+1, _), y = 3 }.",
	"out(x) :- s(x), eq(_, x).",
	"pair(x, y) :- s(x), eq(y, x).",
	"out(x) :- s(x), !eq(_, x).",
	"size(x, n) :- s(x), n = count : { eq(_, x) }.",
}

// shapeTwins gives a shape the rule written without its argument expression
// that must compute the same rows.
var shapeTwins = map[string]string{
	"n(c) :- s(z), c = count : { e(y+1, _), y = 3 }.": "n(c) :- s(z), c = count : { e(4, _) }.",
}

// unkeyedSearchOfS matches a printed search of s without a key: a full scan,
// or a CHOICE that filters every tuple of s.
var unkeyedSearchOfS = regexp.MustCompile(`(FOR|CHOICE) t\d+ IN s( WHERE .*)?\n`)

// emptyPatternCheck matches a printed existence check without a key, which
// the rule's emptiness guard over the same relation already decides.
var emptyPatternCheck = regexp.MustCompile(`\(\(full\)\) IN `)

// shapeCase is a translateShapes rule over the shapes' relations and input.
func shapeCase(rule string) translateCase {
	return translateCase{
		src: `
.decl e(x:number, y:number)
.decl s(x:number)
.decl eq(x:number, y:number) eqrel
.input e
.input s
.input eq
.decl out(x:number)
.decl n(c:number)
.decl pair(x:number, y:number)
.decl size(x:number, n:number)
` + rule + "\n",
		facts: map[string][][]any{
			"e":  {{1, 2}, {2, 3}, {3, 5}, {0, 0}, {4, 5}},
			"s":  {{0}, {1}, {2}, {4}, {7}},
			"eq": {{1, 2}, {3, 3}, {5, 7}},
		},
	}
}

// TestTranslateShapes holds the named shapes to the translation property,
// and a shape with a twin to the twin's rows and printed search. The
// pending equality of e(y+1, x) ahead of s(y) is solved for y, so every
// search of s, in every variant, is keyed; the aggregate body's y = 3 is
// placed before e, so e is searched on 0=4 like the twin's e(4, _). No
// variant of any shape tests an empty pattern for existence.
func TestTranslateShapes(t *testing.T) {
	ramOf := func(t *testing.T, rule string) string {
		t.Helper()
		prog, err := Parse(shapeCase(rule).src)
		if err != nil {
			t.Fatal(err)
		}
		return prog.RAM()
	}
	for _, rule := range translateShapes {
		t.Run(rule, func(t *testing.T) {
			rows, ok := checkTranslate(t, shapeCase(rule))
			if !ok {
				t.Fatal("sema rejects the shape")
			}
			ram := ramOf(t, rule)
			if twin, ok := shapeTwins[rule]; ok {
				if want, _ := checkTranslate(t, shapeCase(twin)); rows != want {
					t.Errorf("rows %s, twin %s has %s", rows, twin, want)
				}
				for _, r := range []string{ram, ramOf(t, twin)} {
					if !strings.Contains(r, "count IN e ON INDEX 0=4\n") {
						t.Errorf("e not searched on 0=4 in:\n%s", r)
					}
					if m := emptyPatternCheck.FindString(r); m != "" {
						t.Errorf("existence check of an empty pattern %q in:\n%s", m, r)
					}
				}
			}
			if m := emptyPatternCheck.FindString(ram); m != "" {
				t.Errorf("existence check of an empty pattern %q in:\n%s", m, ram)
			}
			switch rule {
			case "out(x) :- e(y+1, x), s(y).":
				if m := unkeyedSearchOfS.FindString(ram); m != "" {
					t.Errorf("unkeyed search of s %q in:\n%s", m, ram)
				}
			case "out(x) :- s(z), e(x, _).":
				// Without the eqrel input the program also has delete
				// variants.
				prog, err := Parse(".decl e(x:number, y:number)\n.decl s(x:number)\n.decl out(x:number)\n.input e\n.input s\n" + rule + "\n")
				if err != nil {
					t.Fatal(err)
				}
				r := prog.RAM()
				if !strings.Contains(r, "\nUPDATE\n") || !strings.Contains(r, "\nDELETE\n") {
					t.Errorf("no update or delete variants in:\n%s", r)
				}
				if m := emptyPatternCheck.FindString(r); m != "" {
					t.Errorf("existence check of an empty pattern %q in:\n%s", m, r)
				}
			}
		})
	}
}

// FuzzTranslate holds programs drawn by genExprProgram to the translation
// property (checkTranslate). The seed corpus runs in the ordinary test
// suite, beside TestTranslateShapes; `go test -run '^$' -fuzz FuzzTranslate
// .` searches on. Generated programs, not mutated source text, keep every
// input terminating: the rule reads only input relations.
func FuzzTranslate(f *testing.F) {
	for seed := int64(0); seed < 64; seed++ {
		f.Add(seed, seed%4 == 3, seed%3 == 1)
	}
	f.Fuzz(func(t *testing.T, seed int64, brie, choice bool) {
		checkTranslate(t, genExprProgram(rand.New(rand.NewSource(seed)), brie, choice))
	})
}

// TestAggregateTargetTypes pins the type an aggregate accumulates in: its
// target's as sema infers it, for an expression target and for a local that
// only a body equality binds. (A float sum of -v once accumulated number
// words and read NaN; a max of v + 1u compares unsigned.)
func TestAggregateTargetTypes(t *testing.T) {
	rows, ok := checkTranslate(t, translateCase{
		src: `
.decl f(x:float)
.decl u(x:unsigned)
.input f
.input u
.decl neg(n:float)
.decl top(n:unsigned)
neg(n) :- n = sum -v : { f(v) }.
top(n) :- n = max w : { u(v), w = v + 1u }.
`,
		facts: map[string][][]any{"f": {{1.5}, {2.25}}, "u": {{uint32(1)}, {uint32(3000000000)}}},
	})
	if !ok {
		t.Fatal("sema rejects the program")
	}
	const want = "f=[[1.5] [2.25]] u=[[1] [3000000000]] neg=[[-3.75]] top=[[3000000001]] " +
		"| f=[[2.25]] u=[[3000000000]] neg=[[-2.25]] top=[[3000000001]] "
	if rows != want {
		t.Errorf("rows %s, want %s", rows, want)
	}
}
