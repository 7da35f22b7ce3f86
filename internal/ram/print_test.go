package ram

import (
	"strings"
	"testing"

	"sti/internal/tuple"
	"sti/internal/value"
)

func rel(id int, name string, arity int) *Relation {
	return &Relation{
		ID: id, Name: name, Arity: arity, BaseID: id,
		Types:  make([]value.Type, arity),
		Orders: []tuple.Order{tuple.Identity(arity)},
	}
}

// TestFig3Shape renders a program with the structure of the paper's Fig 3
// and checks every statement form appears.
func TestFig3Shape(t *testing.T) {
	edge := rel(0, "Edge", 2)
	unsafe := rel(1, "Unsafe", 1)
	delta := rel(2, "delta_Unsafe", 1)
	nw := rel(3, "new_Unsafe", 1)
	delta.Kind, nw.Kind = AuxDelta, AuxNew

	query := &Query{
		RuleID: 0,
		Label:  "Unsafe(y) :- Unsafe(x), Edge(x, y).",
		Root: &Filter{
			Cond: &And{
				L: &Not{C: &EmptinessCheck{Rel: delta}},
				R: &Not{C: &EmptinessCheck{Rel: edge}},
			},
			Nested: &Scan{
				Rel: delta, TupleID: 0,
				Nested: &Scan{
					Rel: edge, IndexID: 0, TupleID: 1,
					Pattern: []Expr{&TupleElement{TupleID: 0, Elem: 0}, nil},
					Nested: &Filter{
						Cond: &Not{C: &ExistenceCheck{
							Rel:     unsafe,
							Pattern: []Expr{&TupleElement{TupleID: 1, Elem: 1}},
						}},
						Nested: &Project{Rel: nw, Exprs: []Expr{&TupleElement{TupleID: 1, Elem: 1}}},
					},
				},
			},
		},
		NumTuples: 2,
	}
	prog := &Program{
		Relations: []*Relation{edge, unsafe, delta, nw},
		Main: &Sequence{Stmts: []Statement{
			&IO{Kind: IOLoad, Rel: edge},
			&Loop{Body: &Sequence{Stmts: []Statement{
				query,
				&Exit{Cond: &EmptinessCheck{Rel: nw}},
				&Merge{Dst: unsafe, Src: nw},
				&Swap{A: delta, B: nw},
				&Clear{Rel: nw},
			}}},
			&IO{Kind: IOStore, Rel: unsafe},
			&IO{Kind: IOPrintSize, Rel: unsafe},
		}},
		NumRules: 1,
	}
	text := prog.String()
	for _, want := range []string{
		"DECL Edge arity=2",
		"LOAD Edge",
		"LOOP",
		"FOR t0 IN delta_Unsafe",
		"FOR t1 IN Edge ON INDEX 0=t0.0",
		"NOT ((0=t1.1) IN Unsafe)",
		"INSERT (t1.1) INTO new_Unsafe",
		"EXIT (new_Unsafe = EMPTY)",
		"MERGE new_Unsafe INTO Unsafe",
		"SWAP (delta_Unsafe, new_Unsafe)",
		"CLEAR new_Unsafe",
		"END LOOP",
		"STORE Unsafe",
		"PRINTSIZE Unsafe",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("rendering lacks %q:\n%s", want, text)
		}
	}
}

func TestOperationRendering(t *testing.T) {
	r := rel(0, "r", 2)
	agg := &Aggregate{
		Kind: AggSum, Rel: r, IndexID: -1,
		Pattern: []Expr{&Constant{Val: 3}, nil},
		Target:  &TupleElement{TupleID: 0, Elem: 1},
		Type:    value.Number,
		TupleID: 0,
		Nested:  &Project{Rel: r, Exprs: []Expr{&Constant{Val: 1}, &Constant{Val: 2}}},
	}
	q := &Query{Root: agg, Label: "agg"}
	p := &Program{Relations: []*Relation{r}, Main: q}
	text := p.String()
	if !strings.Contains(text, "t0 = sum t0.1 IN r ON INDEX 0=3") {
		t.Fatalf("aggregate rendering:\n%s", text)
	}

	choice := &Query{Label: "choice", Root: &Choice{
		Rel: r, Pattern: []Expr{&Constant{Val: 7}, nil},
		Cond:    &Constraint{Op: CmpGT, Type: value.Number, L: &TupleElement{TupleID: 0, Elem: 1}, R: &Constant{Val: 0}},
		Nested:  &Project{Rel: r, Exprs: []Expr{&Constant{Val: 1}, &Constant{Val: 2}}},
		TupleID: 0,
	}}
	text = (&Program{Relations: []*Relation{r}, Main: choice}).String()
	if !strings.Contains(text, "CHOICE t0 IN r ON INDEX 0=7 WHERE t0.1 >:number 0") {
		t.Fatalf("choice rendering:\n%s", text)
	}
}

// TestSearchRendering: an unkeyed search prints without ON INDEX; a keyed
// one prints its pattern and range bound, even when the bound alone keys it.
// Marking a node below any of them (as verifier excerpts do) marks its line.
func TestSearchRendering(t *testing.T) {
	r := rel(0, "r", 2)
	project := &Project{Rel: r, Exprs: []Expr{&Constant{Val: 1}, &Constant{Val: 2}}}
	gt := &Constraint{Op: CmpGT, Type: value.Number, L: &TupleElement{TupleID: 0, Elem: 1}, R: &Constant{Val: 0}}
	for _, c := range []struct {
		root Operation
		want string
	}{
		{&Scan{Rel: r, IndexID: -1, Pattern: make([]Expr, 2), TupleID: 0, Nested: project}, "  FOR t0 IN r\n"},
		{&Scan{Rel: r, Pattern: []Expr{&Constant{Val: 3}, nil}, TupleID: 0, Nested: project}, "  FOR t0 IN r ON INDEX 0=3\n"},
		{&Choice{Rel: r, IndexID: -1, Pattern: make([]Expr, 2), Cond: gt, TupleID: 0, Nested: project}, "  CHOICE t0 IN r WHERE t0.1 >:number 0\n"},
		{&Scan{Rel: r, IndexID: -1, Pattern: make([]Expr, 2), TupleID: 0, Nested: &Scan{
			Rel: r, Pattern: make([]Expr, 2), TupleID: 1, Nested: project,
			Bound: &Bound{Col: 0, Type: value.Number, Lo: &TupleElement{TupleID: 0, Elem: 0}, LoStrict: true},
		}}, "    FOR t1 IN r ON INDEX 0>:number t0.0\n"},
	} {
		p := &Program{Relations: []*Relation{r}, Main: &Query{Label: "q", Root: c.root}}
		if text := p.String(); !strings.Contains(text, c.want) {
			t.Errorf("rendering lacks %q:\n%s", c.want, text)
		}
		if text := p.MarkedString(project); !strings.Contains(text, ">> ") || !strings.Contains(text, "\n>> ") {
			t.Errorf("marked rendering does not mark the insert:\n%s", text)
		}
	}
}

func TestExprAndCondStrings(t *testing.T) {
	e := &Intrinsic{Op: OpAdd, Type: value.Number, Args: []Expr{
		&TupleElement{TupleID: 2, Elem: 1},
		&Constant{Val: 5},
	}}
	if got := ExprString(e); got != "add:number(t2.1, 5)" {
		t.Fatalf("ExprString = %q", got)
	}
	c := &And{
		L: &Constraint{Op: CmpNE, Type: value.Symbol, L: &Constant{Val: 1}, R: &Constant{Val: 2}},
		R: &Not{C: &EmptinessCheck{Rel: rel(0, "x", 1)}},
	}
	if got := CondString(c); got != "1 !=:symbol 2 AND NOT (x = EMPTY)" {
		t.Fatalf("CondString = %q", got)
	}
}

func TestEnumStrings(t *testing.T) {
	if RepBrie.String() != "brie" || RepEqRel.String() != "eqrel" || RepBTree.String() != "btree" {
		t.Fatal("rep names")
	}
	if AggCount.String() != "count" || AggMax.String() != "max" {
		t.Fatal("agg names")
	}
	if CmpLE.String() != "<=" {
		t.Fatal("cmp names")
	}
	if OpToString.String() != "to_string" || OpBShl.String() != "bshl" {
		t.Fatal("intrinsic names")
	}
}
