package ast2ram

import (
	"strings"
	"testing"

	"sti/internal/parser"
	"sti/internal/sema"
	"sti/internal/symtab"
)

func translateErr(t *testing.T, src string) error {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	an, errs := sema.Analyze(p)
	if len(errs) > 0 {
		t.Fatalf("sema: %v", errs)
	}
	_, err = Translate(an, symtab.New())
	if err == nil {
		t.Fatalf("translation accepted:\n%s", src)
	}
	return err
}

func TestAggregateTwoAtomsRejected(t *testing.T) {
	err := translateErr(t, `
.decl a(x:number)
.decl b(x:number)
.decl out(n:number)
out(n) :- a(_), n = count : { a(x), b(x) }.
`)
	if !strings.Contains(err.Error(), "one positive atom") {
		t.Fatalf("err = %v", err)
	}
}

func TestAggregateNegationRejected(t *testing.T) {
	err := translateErr(t, `
.decl a(x:number)
.decl b(x:number)
.decl out(n:number)
out(n) :- a(_), n = count : { !b(1) }.
`)
	if !strings.Contains(err.Error(), "atoms and constraints") &&
		!strings.Contains(err.Error(), "positive atom") {
		t.Fatalf("err = %v", err)
	}
}

func TestAggregateDeepPositionRejected(t *testing.T) {
	err := translateErr(t, `
.decl a(x:number)
.decl out(n:number)
out(n) :- a(_), n = 1 + count : { a(_) }.
`)
	if !strings.Contains(err.Error(), "aggregate") {
		t.Fatalf("err = %v", err)
	}
}

func TestFactSymbolsInterned(t *testing.T) {
	p, err := parser.Parse(`
.decl r(s:symbol)
r("alpha").
r("beta").
`)
	if err != nil {
		t.Fatal(err)
	}
	an, errs := sema.Analyze(p)
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	st := symtab.New()
	if _, err := Translate(an, st); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Lookup("alpha"); !ok {
		t.Fatal("fact symbol not interned during translation")
	}
	if st.Len() != 2 {
		t.Fatalf("symbol table has %d entries", st.Len())
	}
}

func TestBaseIDTracking(t *testing.T) {
	p, err := parser.Parse(`
.decl e(x:number, y:number)
.decl tc(x:number, y:number)
tc(x, y) :- e(x, y).
tc(x, z) :- tc(x, y), e(y, z).
`)
	if err != nil {
		t.Fatal(err)
	}
	an, errs := sema.Analyze(p)
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	rp, err := Translate(an, symtab.New())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for _, r := range rp.Relations {
		byName[r.Name] = r.BaseID
	}
	if byName["@delta_tc"] != byName["tc"] || byName["@new_tc"] != byName["tc"] {
		t.Fatalf("aux BaseIDs wrong: %v", byName)
	}
	for _, r := range rp.Relations {
		if !r.IsAux() && r.BaseID != r.ID {
			t.Fatalf("source relation %s has BaseID %d != ID %d", r.Name, r.BaseID, r.ID)
		}
	}
}
