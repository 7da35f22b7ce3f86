package ramopt_test

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"sti/internal/ast2ram"
	"sti/internal/compile"
	"sti/internal/eio"
	"sti/internal/interp"
	"sti/internal/parser"
	"sti/internal/ram"
	"sti/internal/ramopt"
	"sti/internal/sema"
	"sti/internal/symtab"
	"sti/internal/tuple"
	"sti/internal/value"
)

func build(t testing.TB, src string, optimize bool) (*ram.Program, *symtab.Table) {
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
	if optimize {
		ramopt.Optimize(rp, st, ramopt.Queryable())
	}
	return rp, st
}

func TestConstantFolding(t *testing.T) {
	rp, _ := build(t, `
.decl r(x:number)
.decl s(x:number, y:number)
r(1).
s(x, y) :- r(x), y = x + (2 * 3 - 1).
`, true)
	text := rp.String()
	// 2*3-1 folds; x+5 cannot (x is dynamic).
	if !strings.Contains(text, "add:number(t0.0, 5)") {
		t.Fatalf("constant folding missed:\n%s", text)
	}
}

func TestStringFolding(t *testing.T) {
	rp, st := build(t, `
.decl r(s:symbol)
.decl out(s:symbol, n:number)
r("x").
out(cat("a", "b"), strlen("abc") + 1) :- r(_).
`, true)
	text := rp.String()
	ab, ok := st.Lookup("ab")
	if !ok {
		t.Fatal("folded cat result not interned")
	}
	if !strings.Contains(text, "INSERT ("+itoa(int(ab))+", 4)") {
		t.Fatalf("string folding missed (ab=%d):\n%s", ab, text)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	s := ""
	for i > 0 {
		s = string(rune('0'+i%10)) + s
		i /= 10
	}
	return s
}

func TestDivisionNotFolded(t *testing.T) {
	rp, _ := build(t, `
.decl r(x:number)
.decl s(x:number)
r(1).
s(y) :- r(x), y = x + 4 / 2.
`, true)
	// 4/2 must stay dynamic to preserve error semantics uniformly.
	if !strings.Contains(rp.String(), "div:number(4, 2)") {
		t.Fatalf("division folded away:\n%s", rp.String())
	}
}

func TestFilterFusion(t *testing.T) {
	src := `
.decl e(x:number, y:number)
.decl out(x:number)
.input e
out(x) :- e(x, y), x > 1, y > 2, x != y.
`
	plain, _ := build(t, src, false)
	fused, _ := build(t, src, true)
	if strings.Count(plain.String(), "IF (") <= strings.Count(fused.String(), "IF (") {
		t.Fatalf("fusion did not reduce filter count:\nplain:\n%s\nfused:\n%s",
			plain.String(), fused.String())
	}
	if !strings.Contains(fused.String(), " AND ") {
		t.Fatalf("no conjunction formed:\n%s", fused.String())
	}
}

func TestChoiceConversion(t *testing.T) {
	// The witness y is only tested, never projected: the scan becomes a
	// choice.
	src := `
.decl e(x:number, y:number)
.decl node(x:number)
.decl out(x:number)
.input e
.input node
out(x) :- node(x), e(x, y), y > 10.
`
	rp, _ := build(t, src, true)
	text := rp.String()
	if !strings.Contains(text, "CHOICE") {
		t.Fatalf("no choice introduced:\n%s", text)
	}
}

// A choice keeps one witness of its search, so no CHOICE may bind a tuple
// that the operation under it reads: per CHOICE node, in every entry point,
// its nested operation reads no element of its tuple (its condition may). In
// Main, out(x, y) projects e's tuple, so e stays a scan. The Delete
// program's rederive round scans the overdeleted heads ([head<-@del_out])
// and only tests that e still holds each one: the e search there is keyed
// on e's whole tuple by the head's, so it becomes an existence check on e
// with that pattern, and no search of e is left.
func TestNoChoiceWhenTupleUsed(t *testing.T) {
	src := `
.decl e(x:number, y:number)
.decl out(x:number, y:number)
.input e
out(x, y) :- e(x, y), y > 10.
`
	rp, _ := build(t, src, true)
	if rp.Update == nil || rp.Delete == nil {
		t.Fatalf("program has no incremental entry points: %s %s", rp.NoUpdateReason, rp.NoDeleteReason)
	}
	for _, entry := range rp.Entries() {
		ram.Inspect(entry, func(n any) bool {
			if c, ok := n.(*ram.Choice); ok && readsTuple(c.Nested, c.TupleID) {
				t.Errorf("CHOICE on %s binds t%d, which its body reads:\n%s", c.Rel.Name, c.TupleID, rp.String())
			}
			return true
		})
	}
	mainScan := false
	ram.Inspect(rp.Main, func(n any) bool {
		switch n := n.(type) {
		case *ram.Choice:
			t.Errorf("choice introduced in Main although the tuple is projected:\n%s", rp.String())
		case *ram.Scan:
			mainScan = mainScan || n.Rel.Name == "e" && readsTuple(n.Nested, n.TupleID)
		}
		return true
	})
	if !mainScan {
		t.Fatalf("Main has no scan of e whose body reads its tuple:\n%s", rp.String())
	}
	headCheck, headSearch := false, false
	ram.Inspect(rp.Delete, func(n any) bool {
		q, ok := n.(*ram.Query)
		if !ok || !strings.HasSuffix(q.Label, "[head<-@del_out]") {
			return true
		}
		ram.Inspect(q.Root, func(n any) bool {
			switch n := n.(type) {
			case *ram.ExistenceCheck:
				headCheck = headCheck || n.Rel.Name == "e" && !slices.Contains(n.Pattern, nil)
			case *ram.Scan:
				headSearch = headSearch || n.Rel.Name == "e"
			case *ram.Choice:
				headSearch = headSearch || n.Rel.Name == "e"
			}
			return true
		})
		return false
	})
	if !headCheck || headSearch {
		t.Fatalf("Delete's head-scan rederive does not test e by a full-key existence check alone:\n%s", rp.String())
	}
}

// The rederive round of a recursive rule re-proves each overdeleted head
// through the rule body. Its last atom, edge(y, z), is keyed on its whole
// tuple by the head and the first atom: it becomes an existence check, and
// the path search above it, whose tuple the projection does not read, a
// choice that stops at the first proof.
func TestRederiveStopsAtFirstProof(t *testing.T) {
	src := `
.decl edge(x:number, y:number)
.decl path(x:number, y:number)
.input edge
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
`
	rp, _ := build(t, src, true)
	if rp.Delete == nil {
		t.Fatalf("program has no Delete entry point: %s", rp.NoDeleteReason)
	}
	var edgeCheck, edgeSearch, pathChoice bool
	ram.Inspect(rp.Delete, func(n any) bool {
		q, ok := n.(*ram.Query)
		if !ok || !strings.HasSuffix(q.Label, "path(x, y), edge(y, z). [head<-@del_path]") {
			return true
		}
		ram.Inspect(q.Root, func(n any) bool {
			switch n := n.(type) {
			case *ram.ExistenceCheck:
				edgeCheck = edgeCheck || n.Rel.Name == "edge" && !slices.Contains(n.Pattern, nil)
			case *ram.Scan:
				edgeSearch = edgeSearch || n.Rel.Name == "edge"
			case *ram.Choice:
				edgeSearch = edgeSearch || n.Rel.Name == "edge"
				pathChoice = pathChoice || n.Rel.Name == "path"
			}
			return true
		})
		return false
	})
	if !edgeCheck || edgeSearch || !pathChoice {
		t.Fatalf("rederive round: edge existence check %v, edge search %v, path choice %v:\n%s",
			edgeCheck, edgeSearch, pathChoice, rp.String())
	}
}

// readsTuple reports whether any tuple element under node reads slot tid.
func readsTuple(node any, tid int) bool {
	reads := false
	ram.Inspect(node, func(n any) bool {
		if te, ok := n.(*ram.TupleElement); ok && te.TupleID == tid {
			reads = true
		}
		return !reads
	})
	return reads
}

// runAll executes a RAM program on all three in-process backends and
// returns each relation's sorted tuples.
func runAll(t *testing.T, rp *ram.Program, st *symtab.Table, facts map[string][]tuple.Tuple) map[string][]tuple.Tuple {
	t.Helper()
	mem := eio.NewMem()
	mem.Facts = facts
	eng := interp.New(rp, st, interp.DefaultConfig())
	if err := eng.Run(mem); err != nil {
		t.Fatalf("interp: %v", err)
	}
	out := map[string][]tuple.Tuple{}
	for _, rd := range rp.Relations {
		if rd.IsAux() {
			continue
		}
		ts, err := eng.Tuples(rd.Name)
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(ts, func(i, j int) bool { return tuple.Compare(ts[i], ts[j]) < 0 })
		out[rd.Name] = ts
	}
	// Cross-check the compiled engine on the same (already optimized) RAM.
	m := compile.New(rp, st)
	mem2 := eio.NewMem()
	mem2.Facts = facts
	if err := m.Run(mem2); err != nil {
		t.Fatalf("compile: %v", err)
	}
	for _, rd := range rp.Relations {
		if rd.IsAux() {
			continue
		}
		ts, err := m.Tuples(rd.Name)
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(ts, func(i, j int) bool { return tuple.Compare(ts[i], ts[j]) < 0 })
		a := out[rd.Name]
		if len(a) != len(ts) {
			t.Fatalf("backends disagree on optimized %s: %d vs %d", rd.Name, len(a), len(ts))
		}
		for i := range a {
			if tuple.Compare(a[i], ts[i]) != 0 {
				t.Fatalf("backends disagree on optimized %s at %d", rd.Name, i)
			}
		}
	}
	return out
}

// TestOptimizationPreservesSemantics: optimized and unoptimized programs
// compute identical relations on randomized inputs, across backends.
func TestOptimizationPreservesSemantics(t *testing.T) {
	src := `
.decl e(x:number, y:number)
.decl node(x:number)
.decl reach(x:number, y:number)
.decl hasBig(x:number)
.decl labeled(x:number, n:number)
.decl far(x:number)
.input e
node(x) :- e(x, _).
node(y) :- e(_, y).
reach(x, y) :- e(x, y).
reach(x, z) :- reach(x, y), e(y, z).
hasBig(x) :- node(x), e(x, y), y > 5, y != x.
labeled(x, n) :- node(x), n = x * 2 + 3 - 1.
far(x) :- node(x), !reach(0, x), x > 1 + 1.
`
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		n := 10 + trial*5
		facts := map[string][]tuple.Tuple{}
		for i := 0; i < 3*n; i++ {
			facts["e"] = append(facts["e"],
				tuple.Tuple{value.Value(rng.Intn(n)), value.Value(rng.Intn(n))})
		}
		rpPlain, stPlain := build(t, src, false)
		rpOpt, stOpt := build(t, src, true)
		plain := runAll(t, rpPlain, stPlain, facts)
		opt := runAll(t, rpOpt, stOpt, facts)
		for name, a := range plain {
			b := opt[name]
			if len(a) != len(b) {
				t.Fatalf("trial %d relation %s: %d vs %d tuples", trial, name, len(a), len(b))
			}
			for i := range a {
				if tuple.Compare(a[i], b[i]) != 0 {
					t.Fatalf("trial %d relation %s differs at %d: %v vs %v", trial, name, i, a[i], b[i])
				}
			}
		}
	}
}

// TestOptimizedSynthesis: the Go emitter accepts choice-optimized RAM.
func TestOptimizedEmit(t *testing.T) {
	rp, st := build(t, `
.decl e(x:number, y:number)
.decl node(x:number)
.decl out(x:number)
.input e
.input node
.output out
out(x) :- node(x), e(x, y), y > 10.
`, true)
	if !strings.Contains(rp.String(), "CHOICE") {
		t.Skip("no choice generated; nothing to cover")
	}
	// Emission must succeed and include a break-based early exit.
	src, err := emitForTest(rp, st)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "break") {
		t.Fatalf("choice emission lacks early exit:\n%s", src)
	}
}
