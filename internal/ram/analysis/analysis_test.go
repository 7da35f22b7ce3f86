package analysis_test

import (
	"strings"
	"testing"

	"sti/internal/ast2ram"
	"sti/internal/parser"
	"sti/internal/ram"
	"sti/internal/ram/analysis"
	"sti/internal/sema"
	"sti/internal/symtab"
)

func translate(t *testing.T, src string) *ram.Program {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	an, errs := sema.Analyze(p)
	if len(errs) > 0 {
		t.Fatalf("sema: %v", errs)
	}
	prog, err := ast2ram.Translate(an, symtab.New())
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	return prog
}

func relByName(t *testing.T, p *ram.Program, name string) *ram.Relation {
	t.Helper()
	for _, r := range p.Relations {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("no relation %q", name)
	return nil
}

const tcSrc = `
.decl edge(x:number, y:number)
.decl path(x:number, y:number)
.decl scratch(x:number)
.input edge
.output path
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
scratch(x) :- edge(x, _).
`

func TestQueryEffectsDefensive(t *testing.T) {
	// A malformed query (nil nested, nil relation) must not panic.
	q := &ram.Query{Root: &ram.Scan{Rel: nil, TupleID: 0, Nested: nil}}
	reads, writes := analysis.QueryEffects(q)
	if len(reads) != 0 || len(writes) != 0 {
		t.Fatalf("reads=%v writes=%v, want empty", reads, writes)
	}
	r, w := analysis.QueryEffects(nil)
	if len(r) != 0 || len(w) != 0 {
		t.Fatal("nil query must yield empty effect sets")
	}
}

func TestMonotone(t *testing.T) {
	check := func(src string, wantMonotone bool, wantReason string) {
		t.Helper()
		p, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		an, errs := sema.Analyze(p)
		if len(errs) > 0 {
			t.Fatalf("sema: %v", errs)
		}
		m := analysis.Monotone(an)
		if m.Monotone() != wantMonotone {
			t.Fatalf("Monotone() = %v, want %v (reason %q)", m.Monotone(), wantMonotone, m.Reason())
		}
		if wantReason != "" && !strings.Contains(m.Reason(), wantReason) {
			t.Fatalf("Reason() = %q, want substring %q", m.Reason(), wantReason)
		}
	}
	check(tcSrc, true, "")
	check(`
.decl a(x:number)
.decl b(x:number)
.decl c(x:number)
c(x) :- a(x), !b(x).
`, false, "negated atom !b(x)")
	check(`
.decl e(x:number, y:number)
.decl out(x:number, n:number)
out(x, n) :- e(x, _), n = count : { e(x, _) }.
`, false, "count aggregate")
}

func TestMonotoneGatesUpdate(t *testing.T) {
	// Translation must agree with the analysis fact: monotone programs get
	// an Update entry point, non-monotone programs get the reason instead.
	mono := translate(t, tcSrc)
	if mono.Update == nil || mono.NoUpdateReason != "" {
		t.Fatalf("monotone program: Update=%v reason=%q", mono.Update != nil, mono.NoUpdateReason)
	}
	neg := translate(t, `
.decl a(x:number)
.decl b(x:number)
.decl c(x:number)
c(x) :- a(x), !b(x).
`)
	if neg.Update != nil {
		t.Fatal("non-monotone program emitted an Update entry point")
	}
	if !strings.Contains(neg.NoUpdateReason, "not insert-monotone") {
		t.Fatalf("NoUpdateReason = %q", neg.NoUpdateReason)
	}
}
