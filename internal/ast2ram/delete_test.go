package ast2ram

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"sti/internal/ram"
)

// TestOverdeleteStopsAtSurvivors pins which exit rules guard the overdelete
// variants of their head. An exit rule — a body of one positive atom over a
// lower stratum whose variables a head of distinct variables determines —
// puts the test ¬(key ∈ A ∧ key ∉ del_A) on every [del@i] / [ddel@i]
// variant of its head, and loses its first-round rederive variant, which no
// tuple passing the test can satisfy. exits maps each exit rule to its
// test, written A(head positions of the key); every other shape gets no
// test and keeps its rederive variant.
func TestOverdeleteStopsAtSurvivors(t *testing.T) {
	const decls = `
.decl e(x:number, y:number)
.decl f(x:number, y:number)
.decl u(x:number)
.input e
.input f
.input u
`
	const binary = ".decl p(x:number, y:number)\n"
	const unary = ".decl p(x:number)\n"
	const tc = "p(x, z) :- p(x, y), e(y, z).\n"
	cases := []struct {
		name, src string
		exits     map[string]string
	}{
		{"copy", binary + "p(x, y) :- e(x, y).\n" + tc,
			map[string]string{"p(x, y) :- e(x, y).": "e(0,1)"}},
		{"permuted", binary + "p(y, x) :- e(x, y).\n" + tc,
			map[string]string{"p(y, x) :- e(x, y).": "e(1,0)"}},
		{"repeated", unary + "p(x) :- e(x, x).\np(y) :- p(x), e(x, y).\n",
			map[string]string{"p(x) :- e(x, x).": "e(0,0)"}},
		{"two exits", binary + "p(x, y) :- e(x, y).\np(x, y) :- f(y, x).\n" + tc,
			map[string]string{"p(x, y) :- e(x, y).": "e(0,1)", "p(x, y) :- f(y, x).": "f(1,0)"}},
		{"wildcard", unary + "p(x) :- e(x, _).\np(y) :- p(x), e(x, y).\n", nil},
		{"variable not in head", unary + "p(x) :- e(x, y).\np(y) :- p(x), e(x, y).\n", nil},
		{"second atom", binary + "p(x, y) :- e(x, y), f(x, y).\n" + tc, nil},
		{"constraint", binary + "p(x, y) :- e(x, y), x < y.\n" + tc, nil},
		{"in-stratum atom", binary + ".decl q(x:number, y:number)\np(x, y) :- q(x, y).\nq(x, y) :- p(y, x).\nq(x, y) :- e(x, y).\n" + tc, nil},
		{"constant in head", binary + "p(x, 1) :- u(x).\n" + tc, nil},
		{"repeated in head", binary + "p(x, x) :- u(x).\n" + tc, nil},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			rp := translate(t, decls+tt.src)
			var p *ram.Relation
			for _, r := range rp.Relations {
				if r.Name == "p" {
					p = r
				}
			}
			variants := 0
			rederives := map[string]bool{} // clause → has a first-round rederive variant
			eachQuery(rp.Delete, func(q *ram.Query) {
				proj := projectOf(q.Root)
				if proj == nil || proj.Rel.BaseID != p.ID {
					return
				}
				switch proj.Rel.Kind {
				case ram.AuxRedNew:
					if !strings.Contains(q.Label, "[dred@") {
						clause, _, _ := strings.Cut(q.Label, " [")
						rederives[clause] = true
					}
				case ram.AuxDelNew:
					variants++
					var want []string
					for _, test := range tt.exits {
						want = append(want, test)
					}
					slices.Sort(want)
					if got := survivalTests(q.Root, proj); !slices.Equal(got, want) {
						t.Errorf("%s: survival tests %v, want %v", q.Label, got, want)
					}
				}
			})
			if variants < 2 {
				t.Fatalf("%d overdelete variants of p, want at least 2", variants)
			}
			for _, c := range strings.Split(strings.TrimSpace(tt.src), "\n") {
				if strings.HasPrefix(c, "p(") {
					_, exit := tt.exits[c]
					if rederives[c] == exit {
						t.Errorf("%s: first-round rederive variant emitted %v, want %v", c, rederives[c], !exit)
					}
				}
			}
		})
	}
}

// survivalTests lists, sorted, the ¬(key ∈ A ∧ key ∉ del_A) filters on the
// way to proj whose A is a source relation, each as A(head positions).
func survivalTests(op ram.Operation, proj *ram.Project) []string {
	var out []string
	for op != ram.Operation(proj) {
		switch o := op.(type) {
		case *ram.Scan:
			op = o.Nested
		case *ram.Filter:
			op = o.Nested
			not, _ := o.Cond.(*ram.Not)
			if not == nil {
				continue
			}
			and, _ := not.C.(*ram.And)
			if and == nil {
				continue
			}
			in, _ := and.L.(*ram.ExistenceCheck)
			notDel, _ := and.R.(*ram.Not)
			if in == nil || in.Rel.IsAux() || notDel == nil {
				continue
			}
			if del, _ := notDel.C.(*ram.ExistenceCheck); del == nil || del.Rel.Kind != ram.AuxDel || del.Rel.BaseID != in.Rel.ID {
				continue
			}
			pos := make([]string, len(in.Pattern))
			for k, e := range in.Pattern {
				pos[k] = "?"
				for j, h := range proj.Exprs {
					if ram.ExprString(e) == ram.ExprString(h) {
						pos[k] = fmt.Sprint(j)
					}
				}
			}
			out = append(out, fmt.Sprintf("%s(%s)", in.Rel.Name, strings.Join(pos, ",")))
		default:
			op = proj // nothing else lies between these variants' roots and projections
		}
	}
	slices.Sort(out)
	return out
}
