package sema

import (
	"fmt"
	"strings"
	"testing"

	"sti/internal/parser"
	"sti/internal/value"
)

func analyze(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	out, errs := Analyze(prog)
	if len(errs) > 0 {
		t.Fatalf("analyze: %v", errs)
	}
	return out
}

func analyzeErr(t *testing.T, src string) []error {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, errs := Analyze(prog)
	if len(errs) == 0 {
		t.Fatalf("expected analysis errors for:\n%s", src)
	}
	return errs
}

func errorsContain(errs []error, substr string) bool {
	for _, e := range errs {
		if strings.Contains(e.Error(), substr) {
			return true
		}
	}
	return false
}

const tcProgram = `
.decl edge(x:number, y:number)
.decl path(x:number, y:number)
.input edge
.output path
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
`

func TestBasicProgram(t *testing.T) {
	p := analyze(t, tcProgram)
	if len(p.RelList) != 2 {
		t.Fatalf("rels = %d", len(p.RelList))
	}
	edge, path := p.Rel("edge"), p.Rel("path")
	if !edge.Input || edge.Output {
		t.Fatal("edge directives wrong")
	}
	if !path.Output || path.Input {
		t.Fatal("path directives wrong")
	}
	if edge.Recursive {
		t.Fatal("edge marked recursive")
	}
	if !path.Recursive {
		t.Fatal("path not marked recursive")
	}
	if len(path.Clauses) != 2 {
		t.Fatalf("path clauses = %d", len(path.Clauses))
	}
}

func TestStrataOrder(t *testing.T) {
	p := analyze(t, tcProgram)
	edge, path := p.Rel("edge"), p.Rel("path")
	if edge.Stratum >= path.Stratum {
		t.Fatalf("edge stratum %d, path stratum %d", edge.Stratum, path.Stratum)
	}
	// Strata indices match positions.
	for i, s := range p.Strata {
		if s.Index != i {
			t.Fatalf("stratum %d has index %d", i, s.Index)
		}
	}
	// path stratum is recursive, edge stratum isn't.
	if p.Strata[edge.Stratum].Recursive {
		t.Fatal("edge stratum recursive")
	}
	if !p.Strata[path.Stratum].Recursive {
		t.Fatal("path stratum not recursive")
	}
}

func TestMutualRecursionOneStratum(t *testing.T) {
	p := analyze(t, `
.decl a(x:number)
.decl b(x:number)
.decl seed(x:number)
a(x) :- seed(x).
a(x) :- b(x).
b(x) :- a(x), x < 10.
`)
	if p.Rel("a").Stratum != p.Rel("b").Stratum {
		t.Fatal("mutually recursive relations in different strata")
	}
	if p.Rel("seed").Stratum >= p.Rel("a").Stratum {
		t.Fatal("seed not before a")
	}
}

func TestStratifiedNegationAccepted(t *testing.T) {
	p := analyze(t, `
.decl edge(x:number, y:number)
.decl reach(x:number)
.decl unreach(x:number)
.decl node(x:number)
reach(x) :- edge(x, _).
reach(y) :- reach(x), edge(x, y).
unreach(x) :- node(x), !reach(x).
`)
	if p.Rel("unreach").Stratum <= p.Rel("reach").Stratum {
		t.Fatal("negated dependency not in earlier stratum")
	}
}

func TestUnstratifiableRejected(t *testing.T) {
	errs := analyzeErr(t, `
.decl a(x:number)
.decl b(x:number)
a(x) :- b(x).
b(x) :- a(x), !a(x).
`)
	if !errorsContain(errs, "not stratifiable") {
		t.Fatalf("errors = %v", errs)
	}
}

func TestAggregateStratification(t *testing.T) {
	// Aggregation over the relation being defined is rejected.
	errs := analyzeErr(t, `
.decl r(x:number)
r(n) :- r(x), n = count : { r(x) }.
`)
	if !errorsContain(errs, "not stratifiable") {
		t.Fatalf("errors = %v", errs)
	}
}

func TestUndeclaredRelation(t *testing.T) {
	errs := analyzeErr(t, `a(1).`)
	if !errorsContain(errs, "undeclared") {
		t.Fatalf("errors = %v", errs)
	}
	errs = analyzeErr(t, ".decl a(x:number)\na(x) :- b(x).")
	if !errorsContain(errs, "undeclared relation b") {
		t.Fatalf("errors = %v", errs)
	}
	errs = analyzeErr(t, ".decl a(x:number)\n.input missing")
	if !errorsContain(errs, "undeclared") {
		t.Fatalf("errors = %v", errs)
	}
}

func TestArityMismatch(t *testing.T) {
	errs := analyzeErr(t, ".decl a(x:number)\n.decl b(x:number, y:number)\na(x) :- b(x).")
	if !errorsContain(errs, "arity") {
		t.Fatalf("errors = %v", errs)
	}
}

func TestRedeclaration(t *testing.T) {
	errs := analyzeErr(t, ".decl a(x:number)\n.decl a(y:symbol)")
	if !errorsContain(errs, "redeclared") {
		t.Fatalf("errors = %v", errs)
	}
}

func TestEqrelChecks(t *testing.T) {
	errs := analyzeErr(t, ".decl e(x:number) eqrel")
	if !errorsContain(errs, "binary") {
		t.Fatalf("errors = %v", errs)
	}
	errs = analyzeErr(t, ".decl e(x:number, y:symbol) eqrel")
	if !errorsContain(errs, "equally-typed") {
		t.Fatalf("errors = %v", errs)
	}
	analyze(t, ".decl e(x:number, y:number) eqrel")
}

func TestGroundedness(t *testing.T) {
	// Head variable not bound.
	errs := analyzeErr(t, ".decl a(x:number)\n.decl b(x:number)\na(y) :- b(x).")
	if !errorsContain(errs, "not grounded") {
		t.Fatalf("errors = %v", errs)
	}
	// Negation-only binding is rejected.
	errs = analyzeErr(t, ".decl a(x:number)\n.decl b(x:number)\na(x) :- !b(x).")
	if !errorsContain(errs, "not grounded") {
		t.Fatalf("errors = %v", errs)
	}
	// Constraint-only appearance is rejected.
	errs = analyzeErr(t, ".decl a(x:number)\n.decl b(x:number)\na(1) :- b(x), y < x.")
	if !errorsContain(errs, "not grounded") {
		t.Fatalf("errors = %v", errs)
	}
}

func TestEqualityBinds(t *testing.T) {
	analyze(t, `
.decl a(x:number)
.decl b(x:number)
a(y) :- b(x), y = x + 1.
`)
	// Chained equalities bind through a fixpoint.
	analyze(t, `
.decl a(x:number)
.decl b(x:number)
a(z) :- b(x), z = y * 2, y = x + 1.
`)
	// Circular equalities do not bind.
	errs := analyzeErr(t, `
.decl a(x:number)
.decl b(x:number)
a(y) :- b(x), y = z, z = y.
`)
	if !errorsContain(errs, "ungrounded") && !errorsContain(errs, "not grounded") {
		t.Fatalf("errors = %v", errs)
	}
}

func TestAggregateBindsResult(t *testing.T) {
	p := analyze(t, `
.decl e(x:number, y:number)
.decl r(x:number, n:number)
r(x, n) :- e(x, _), n = count : { e(x, _) }.
`)
	info := p.Clauses[p.Rel("r").Clauses[0]]
	if info.VarTypes["n"] != value.Number {
		t.Fatalf("n type = %v", info.VarTypes["n"])
	}
}

func TestTypeConflicts(t *testing.T) {
	errs := analyzeErr(t, `
.decl a(x:number)
.decl s(x:symbol)
a(x) :- s(x).
`)
	if !errorsContain(errs, "conflicting types") && !errorsContain(errs, "has type symbol, expected number") {
		t.Fatalf("errors = %v", errs)
	}
	// Literal type mismatch in a fact.
	errs = analyzeErr(t, `.decl a(x:symbol)`+"\n"+`a(3).`)
	if !errorsContain(errs, "used as symbol") {
		t.Fatalf("errors = %v", errs)
	}
}

func TestVarTypesInferred(t *testing.T) {
	p := analyze(t, `
.decl e(x:number, s:symbol)
.decl out(s:symbol, n:number)
out(s, y) :- e(x, s), y = x + 1.
`)
	info := p.Clauses[p.Rel("out").Clauses[0]]
	if info.VarTypes["x"] != value.Number || info.VarTypes["s"] != value.Symbol || info.VarTypes["y"] != value.Number {
		t.Fatalf("types = %v", info.VarTypes)
	}
}

func TestFunctorTypeChecks(t *testing.T) {
	analyze(t, `
.decl s(x:symbol)
.decl n(x:number)
n(strlen(x)) :- s(x).
s(cat(x, "!")) :- s(x).
`)
	errs := analyzeErr(t, `
.decl s(x:symbol)
s(x + 1) :- s(x).
`)
	if !errorsContain(errs, "symbol") {
		t.Fatalf("errors = %v", errs)
	}
	errs = analyzeErr(t, `
.decl n(x:number)
n(bogus(x)) :- n(x).
`)
	if !errorsContain(errs, "unknown functor") {
		t.Fatalf("errors = %v", errs)
	}
	// Every functor message, in order, as the signature table yields it.
	for _, c := range []struct{ rule, want string }{
		{`n(cat("a", "b")) :- n(x).`, `[4:3: cat produces symbol, expected number]`},
		{`s(y) :- n(x), y = cat("a").`, `[4:19: cat expects at least 2 arguments]`},
		{`n(y) :- n(x), y = strlen("a", "b").`, `[4:19: functor strlen expects 1 arguments, got 2]`},
		{`s(y) :- s(x), y = substr(x, 1).`, `[4:19: functor substr expects 3 arguments, got 2]`},
		{`s(y) :- s(x), y = to_string(x).`, `[4:29: variable x has type symbol, expected number]`},
		{`n(max(x, "a")) :- n(x).`, `[4:10: string literal "a" used as number]`},
		{`s(y) :- s(y), y = min(y, "a").`, `[4:19: min cannot produce symbol]`},
		{`n(y) :- n(x), y = max(x).`, `[4:19: max expects at least 2 arguments]`},
		{`n(y) :- n(x), y = ord(x, 1).`, `[4:19: functor ord expects 1 arguments, got 2]`},
		{`n(y) :- n(x), y = to_number(x).`, `[4:29: variable x has type number, expected symbol]`},
		{`n(nope(x)) :- n(x).`, `[4:3: unknown functor nope]`},
	} {
		errs := analyzeErr(t, "\n.decl s(x:symbol)\n.decl n(x:number)\n"+c.rule+"\n")
		if got := fmt.Sprint(errs); got != c.want {
			t.Errorf("%s: errors = %s, want %s", c.rule, got, c.want)
		}
	}
}

func TestFactChecks(t *testing.T) {
	errs := analyzeErr(t, ".decl a(x:number)\na(x).")
	if !errorsContain(errs, "non-constant") {
		t.Fatalf("errors = %v", errs)
	}
	// Constant-folded facts are fine.
	analyze(t, ".decl a(x:number)\na(1 + 2).")
}

func TestDuplicateAttr(t *testing.T) {
	errs := analyzeErr(t, ".decl a(x:number, x:number)")
	if !errorsContain(errs, "duplicate attribute") {
		t.Fatalf("errors = %v", errs)
	}
}

func TestLongChainStratification(t *testing.T) {
	// A linear chain of 50 relations exercises the iterative Tarjan.
	var b strings.Builder
	b.WriteString(".decl r0(x:number)\nr0(1).\n")
	for i := 1; i < 50; i++ {
		b.WriteString(".decl r" + itoa(i) + "(x:number)\n")
		b.WriteString("r" + itoa(i) + "(x) :- r" + itoa(i-1) + "(x).\n")
	}
	p := analyze(t, b.String())
	for i := 1; i < 50; i++ {
		if p.Rel("r"+itoa(i)).Stratum <= p.Rel("r"+itoa(i-1)).Stratum {
			t.Fatalf("chain stratum order broken at %d", i)
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var digits []byte
	for i > 0 {
		digits = append([]byte{byte('0' + i%10)}, digits...)
		i /= 10
	}
	return string(digits)
}
