package ast2ram

import (
	"strings"
	"testing"

	"sti/internal/parser"
	"sti/internal/ram"
	"sti/internal/ram/verify"
	"sti/internal/sema"
	"sti/internal/symtab"
)

// translate runs src through parse→sema→Translate and verifies the RAM
// output, so every fixture in this file doubles as a verifier corpus
// entry.
func translate(t *testing.T, src string) *ram.Program {
	t.Helper()
	rp, _ := translateVerified(t, src)
	return rp
}

func translateVerified(t *testing.T, src string) (*ram.Program, *symtab.Table) {
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
	rp, err := Translate(an, st)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	if err := verify.Check(rp, "ast2ram"); err != nil {
		t.Fatalf("translated program fails verification: %v", err)
	}
	return rp, st
}

const tcSrc = `
.decl edge(x:number, y:number)
.decl path(x:number, y:number)
.input edge
.output path
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
`

func TestTransitiveClosureShape(t *testing.T) {
	rp := translate(t, tcSrc)
	names := map[string]*ram.Relation{}
	for _, r := range rp.Relations {
		names[r.Name] = r
	}
	for _, want := range []string{"edge", "path", "@delta_path", "@new_path"} {
		if names[want] == nil {
			t.Fatalf("missing relation %s (have %v)", want, relNames(rp))
		}
	}
	if !names["@delta_path"].IsAux() || names["edge"].IsAux() {
		t.Fatal("aux flags wrong")
	}
	text := rp.String()
	for _, want := range []string{
		"LOOP", "EXIT", "MERGE", "SWAP (@delta_path, @new_path)",
		"LOAD edge", "STORE path", "INSERT",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("RAM text lacks %q:\n%s", want, text)
		}
	}
	// The recursive rule scans @delta_path and index-scans edge on column 0.
	if !strings.Contains(text, "FOR t0 IN @delta_path") {
		t.Fatalf("no delta scan:\n%s", text)
	}
	if !strings.Contains(text, "ON INDEX") {
		t.Fatalf("no index scan generated:\n%s", text)
	}
}

func TestIndexSelectionOrders(t *testing.T) {
	rp := translate(t, tcSrc)
	var edge *ram.Relation
	for _, r := range rp.Relations {
		if r.Name == "edge" {
			edge = r
		}
	}
	// edge is searched with column 0 bound: one index, leading with 0.
	if len(edge.Orders) != 1 {
		t.Fatalf("edge orders = %v", edge.Orders)
	}
	if edge.Orders[0][0] != 0 {
		t.Fatalf("edge order %v does not lead with column 0", edge.Orders[0])
	}
}

const secondColSrc = `
.decl e(x:number, y:number)
.decl r(x:number)
.decl s(x:number)
r(x) :- s(y), e(x, y).
`

func TestSecondColumnSearchGetsOrder(t *testing.T) {
	rp := translate(t, secondColSrc)
	var e *ram.Relation
	for _, r := range rp.Relations {
		if r.Name == "e" {
			e = r
		}
	}
	if len(e.Orders) != 1 || e.Orders[0][0] != 1 {
		t.Fatalf("e orders = %v, want leading column 1", e.Orders)
	}
}

const negationSrc = `
.decl a(x:number)
.decl b(x:number)
.decl c(x:number)
c(x) :- a(x), !b(x).
`

func TestNegationBecomesExistenceCheck(t *testing.T) {
	rp := translate(t, negationSrc)
	text := rp.String()
	if !strings.Contains(text, "NOT ((0=t0.0) IN b)") {
		t.Fatalf("negation lowering:\n%s", text)
	}
}

func TestGuardOnRecursiveInsert(t *testing.T) {
	rp := translate(t, tcSrc)
	text := rp.String()
	// @new_path inserts are guarded by absence from path.
	if !strings.Contains(text, "IN path)") || !strings.Contains(text, "INTO @new_path") {
		t.Fatalf("missing recursive guard:\n%s", text)
	}
}

const factsSrc = `
.decl p(x:number, s:symbol)
p(1, "a").
p(2, "b").
`

func TestFactsProject(t *testing.T) {
	rp := translate(t, factsSrc)
	text := rp.String()
	if strings.Count(text, "INSERT") != 2 {
		t.Fatalf("fact inserts:\n%s", text)
	}
}

const aggregateSrc = `
.decl e(x:number, y:number)
.decl out(x:number, n:number)
out(x, n) :- e(x, _), n = count : { e(x, _) }.
`

func TestAggregateLowering(t *testing.T) {
	rp := translate(t, aggregateSrc)
	text := rp.String()
	if !strings.Contains(text, "count") {
		t.Fatalf("no aggregate node:\n%s", text)
	}
}

const eqrelSrc = `
.decl eq(x:number, y:number) eqrel
.decl s(x:number)
.decl out(x:number)
.decl seen(x:number)
.decl alone(x:number)
.decl size(x:number, n:number)
out(x) :- s(y), eq(x, y).
seen(x) :- s(x), eq(_, x).
alone(x) :- s(x), !eq(_, x).
size(x, n) :- s(x), n = count : { eq(_, x) }.
`

// TestEqrelSearchesByMirror pins the binder's eqrel rule: a search keying
// only column 1 is bound as its mirror keying column 0, the prefix of the
// one order an eqrel keeps, whether it scans, checks existence, is negated
// or aggregates. A variable at column 0 binds to the mirrored element 1.
// translate's verifier pass rejects any search that is not an order prefix.
func TestEqrelSearchesByMirror(t *testing.T) {
	rp := translate(t, eqrelSrc)
	main, _, _ := strings.Cut(rp.String(), "\nUPDATE\n")
	for _, want := range []string{
		"FOR t1 IN eq ON INDEX 0=t0.0\n",
		"INSERT (t1.1) INTO out\n",
		"IF ((0=t0.0) IN eq)\n",
		"IF (NOT ((0=t0.0) IN eq))\n",
		"t1 = count IN eq ON INDEX 0=t0.0\n",
	} {
		if !strings.Contains(main, want) {
			t.Errorf("no %q in:\n%s", want, main)
		}
	}
}

// TestAtomArgumentsOverOwnVariables pins two binder shapes: an argument
// expression reading the atom's own new variable is an element equality
// under the scan (or the aggregate's condition), and an aggregate retried
// until its non-variable result side is ground takes its tuple slot only
// when it is placed, so the slots stay t0, t1.
func TestAtomArgumentsOverOwnVariables(t *testing.T) {
	rp := translate(t, `
.decl e(x:number, y:number)
.decl s(x:number)
.decl out(x:number)
.decl n(c:number)
.decl late(x:number)
out(x) :- e(x, x+1).
n(c) :- c = count : { e(x, x+1) }.
late(x) :- x + 1 = count : { e(_, _) }, s(x).
`)
	main, _, _ := strings.Cut(rp.String(), "\nUPDATE\n")
	for _, want := range []string{
		"FOR t0 IN e\n      IF (t0.1 =:number add:number(t0.0, 1))\n",
		"t0 = count IN e ON INDEX (full) WHERE t0.1 =:number add:number(t0.0, 1)\n",
		"FOR t0 IN s\n      t1 = count IN e ON INDEX (full)\n",
	} {
		if !strings.Contains(main, want) {
			t.Errorf("no %q in:\n%s", want, main)
		}
	}
	eachQuery(rp.Main, func(q *ram.Query) {
		if strings.HasPrefix(q.Label, "late(") && q.NumTuples != 2 {
			t.Errorf("%s: NumTuples = %d, want 2", q.Label, q.NumTuples)
		}
	})
}

const mutualSrc = `
.decl seed(x:number)
.decl a(x:number)
.decl b(x:number)
seed(1).
a(x) :- seed(x).
a(x) :- b(x).
b(x) :- a(x), x < 10.
`

func TestMutualRecursionLoopsOnce(t *testing.T) {
	rp := translate(t, mutualSrc)
	// Only the Main program: the update section repeats the fixpoint loop.
	text, _, _ := strings.Cut(rp.String(), "\nUPDATE\n")
	if strings.Count(text, "END LOOP") != 1 {
		t.Fatalf("expected one fixpoint loop:\n%s", text)
	}
	// Exit condition covers both new relations.
	if !strings.Contains(text, "@new_a = EMPTY AND @new_b = EMPTY") {
		t.Fatalf("exit condition:\n%s", text)
	}
}

func TestRuleCount(t *testing.T) {
	rp := translate(t, tcSrc)
	// Main: 1 non-recursive rule + 1 recursive rule with one delta version.
	// Update: 1 restart variant per rule + 1 delta version in the loop.
	// Delete (DRed): overdelete init variant per rule (2) + in-stratum loop
	// variant (1), rederive init variant of the recursive rule (1; the exit
	// rule's can never fire) + loop variant (1).
	if rp.NumRules != 10 {
		t.Fatalf("NumRules = %d", rp.NumRules)
	}
}

func relNames(rp *ram.Program) []string {
	var out []string
	for _, r := range rp.Relations {
		out = append(out, r.Name)
	}
	return out
}

const pointsToSrc = `
.decl alloc(v:number, h:number)
.decl move(t:number, f:number)
.decl store(base:number, fld:number, from:number)
.decl load(to:number, base:number, fld:number)
.decl vpt(v:number, h:number)
.decl hpt(h:number, fld:number, g:number)
.input alloc
.input move
.input store
.input load
.output hpt
vpt(v, h) :- alloc(v, h).
vpt(t, h) :- move(t, f), vpt(f, h).
hpt(b, fld, g) :- store(base, fld, from), vpt(base, b), vpt(from, g).
vpt(t, g) :- load(t, base, fld), vpt(base, b), hpt(b, fld, g).
`

// TestRederiveDrivenByFrontier pins the shape of DRed's rederive variants.
// A loop variant ([dred@i]) is semi-naive: under its emptiness guard its
// outermost operation scans the dred_R frontier, and the overdeleted set
// del_H only filters the head, so a round costs its frontier. A first-round
// variant has no frontier and scans del_H first ([head<-@del_H]).
func TestRederiveDrivenByFrontier(t *testing.T) {
	for name, src := range map[string]string{"tc": tcSrc, "mutual": mutualSrc, "points-to": pointsToSrc} {
		t.Run(name, func(t *testing.T) {
			rp := translate(t, src)
			loops, firsts := 0, 0
			eachQuery(rp.Delete, func(q *ram.Query) {
				proj := projectOf(q.Root)
				if proj == nil || proj.Rel.Kind != ram.AuxRedNew {
					return
				}
				target := proj.Rel
				guard, ok := q.Root.(*ram.Filter)
				if !ok {
					t.Fatalf("%s: no emptiness guard at the root", q.Label)
				}
				outer := scannedRel(guard.Nested)
				outerName := "no scan"
				if outer != nil {
					outerName = outer.Name
				}
				if strings.Contains(q.Label, "[dred@") {
					loops++
					if strings.Contains(q.Label, "[head<-") {
						t.Errorf("%s: loop variant scans the overdeleted set", q.Label)
					}
					if outer == nil || outer.Kind != ram.AuxRedDelta {
						t.Errorf("%s: outermost operation is %s, want a dred frontier scan", q.Label, outerName)
					}
					return
				}
				firsts++
				if outer == nil || outer.Kind != ram.AuxDel || outer.BaseID != target.BaseID {
					t.Errorf("%s: outermost operation is %s, want a scan of the head's del set", q.Label, outerName)
				}
			})
			if loops == 0 || firsts == 0 {
				t.Fatalf("%d loop and %d first-round rederive variants, want some of each", loops, firsts)
			}
		})
	}
}

// eachQuery calls fn on every query of s in program order.
func eachQuery(s ram.Statement, fn func(*ram.Query)) {
	ram.Inspect(s, func(n any) bool {
		if q, ok := n.(*ram.Query); ok {
			fn(q)
			return false
		}
		return true
	})
}

// scannedRel is the relation op enumerates, nil if op is not a scan.
func scannedRel(op ram.Operation) *ram.Relation {
	switch op := op.(type) {
	case *ram.Scan:
		return op.Rel
	}
	return nil
}

// projectOf follows op's nesting to its projection.
func projectOf(op ram.Operation) *ram.Project {
	for {
		switch o := op.(type) {
		case *ram.Project:
			return o
		case *ram.Scan:
			op = o.Nested
		case *ram.Filter:
			op = o.Nested
		default:
			return nil
		}
	}
}
