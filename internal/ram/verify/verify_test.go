package verify

import (
	"strings"
	"testing"

	"sti/internal/ram"
	"sti/internal/tuple"
	"sti/internal/value"
)

// rel builds a well-formed source relation declaration.
func rel(id int, name string, arity int) *ram.Relation {
	types := make([]value.Type, arity)
	return &ram.Relation{
		ID: id, Name: name, Arity: arity, Types: types,
		Orders: []tuple.Order{tuple.Identity(arity)},
		BaseID: id,
	}
}

// tcProgram hand-builds a small well-formed program: load edge, copy it
// into path inside a loop with an exit, store path.
func tcProgram() *ram.Program {
	edge := rel(0, "edge", 2)
	edge.Input = true
	path := rel(1, "path", 2)
	path.Output = true
	copyQ := &ram.Query{
		NumTuples: 1,
		Root: &ram.Scan{
			Rel: edge, IndexID: -1, Pattern: make([]ram.Expr, 2), TupleID: 0,
			Nested: &ram.Project{Rel: path, Exprs: []ram.Expr{
				&ram.TupleElement{TupleID: 0, Elem: 0},
				&ram.TupleElement{TupleID: 0, Elem: 1},
			}},
		},
	}
	return &ram.Program{
		Relations: []*ram.Relation{edge, path},
		Main: &ram.Sequence{Stmts: []ram.Statement{
			&ram.IO{Kind: ram.IOLoad, Rel: edge},
			copyQ,
			&ram.Loop{Body: &ram.Sequence{Stmts: []ram.Statement{
				&ram.Exit{Cond: &ram.EmptinessCheck{Rel: edge}},
			}}},
			&ram.IO{Kind: ram.IOStore, Rel: path},
		}},
	}
}

func TestWellFormedProgramVerifiesClean(t *testing.T) {
	if diags := Program(tcProgram()); len(diags) > 0 {
		t.Fatalf("unexpected diagnostics: %v", diags)
	}
}

// TestMalformedPrograms hand-builds malformed programs and asserts each
// yields exactly the expected diagnostics.
func TestMalformedPrograms(t *testing.T) {
	tests := []struct {
		name  string
		build func() *ram.Program
		want  []string // expected Rule of each diagnostic, in order
	}{
		{
			name: "unbound tuple id",
			build: func() *ram.Program {
				p := tcProgram()
				// A fact-style query reading a tuple slot nothing binds.
				q := &ram.Query{Root: &ram.Project{
					Rel: p.Relations[1],
					Exprs: []ram.Expr{
						&ram.TupleElement{TupleID: 3, Elem: 0},
						&ram.Constant{Val: 1},
					},
				}}
				p.Main.(*ram.Sequence).Stmts = append(p.Main.(*ram.Sequence).Stmts, q)
				return p
			},
			want: []string{RuleTupleUnbound},
		},
		{
			name: "out of bounds tuple element",
			build: func() *ram.Program {
				p := tcProgram()
				q := stmtAt(p, 1).(*ram.Query)
				proj := q.Root.(*ram.Scan).Nested.(*ram.Project)
				proj.Exprs[1].(*ram.TupleElement).Elem = 5 // edge has arity 2
				return p
			},
			want: []string{RuleElemBounds},
		},
		{
			name: "exit outside loop",
			build: func() *ram.Program {
				p := tcProgram()
				seq := p.Main.(*ram.Sequence)
				seq.Stmts = append(seq.Stmts, &ram.Exit{Cond: &ram.EmptinessCheck{Rel: p.Relations[0]}})
				return p
			},
			want: []string{RuleExitInLoop},
		},
		{
			name: "arity mismatched project",
			build: func() *ram.Program {
				p := tcProgram()
				q := stmtAt(p, 1).(*ram.Query)
				proj := q.Root.(*ram.Scan).Nested.(*ram.Project)
				proj.Exprs = proj.Exprs[:1] // path has arity 2
				return p
			},
			want: []string{RuleProjectArity},
		},
		{
			name: "bogus index order",
			build: func() *ram.Program {
				p := tcProgram()
				p.Relations[0].Orders = []tuple.Order{{0, 0}} // not a permutation
				return p
			},
			want: []string{RuleRelOrder},
		},
		{
			name: "index id out of range",
			build: func() *ram.Program {
				p := tcProgram()
				q := stmtAt(p, 1).(*ram.Query)
				scan := q.Root.(*ram.Scan)
				q.Root = &ram.Scan{
					Rel: scan.Rel, IndexID: 7,
					Pattern: []ram.Expr{&ram.Constant{Val: 1}, nil},
					TupleID: 0, Nested: scan.Nested,
				}
				return p
			},
			want: []string{RuleIndexID},
		},
		{
			name: "bound pattern not an order prefix",
			build: func() *ram.Program {
				p := tcProgram()
				q := stmtAt(p, 1).(*ram.Query)
				scan := q.Root.(*ram.Scan)
				// Index 0 orders (0,1); binding only position 1 is no prefix.
				q.Root = &ram.Scan{
					Rel: scan.Rel, IndexID: 0,
					Pattern: []ram.Expr{nil, &ram.Constant{Val: 1}},
					TupleID: 0, Nested: scan.Nested,
				}
				return p
			},
			want: []string{RuleIndexPrefix},
		},
		{
			name: "keyed scan without an index",
			build: func() *ram.Program {
				p := tcProgram()
				scan := stmtAt(p, 1).(*ram.Query).Root.(*ram.Scan)
				scan.Pattern = []ram.Expr{&ram.Constant{Val: 1}, nil}
				return p
			},
			want: []string{RuleIndexID},
		},
		{
			name: "unkeyed choice with an index",
			build: func() *ram.Program {
				p := tcProgram()
				q := stmtAt(p, 1).(*ram.Query)
				scan := q.Root.(*ram.Scan)
				q.Root = &ram.Choice{
					Rel: scan.Rel, IndexID: 0, Pattern: make([]ram.Expr, 2),
					TupleID: 0, Nested: scan.Nested,
				}
				return p
			},
			want: []string{RuleIndexID},
		},
		{
			name: "bounded scan without an index",
			build: func() *ram.Program {
				p := tcProgram()
				q := stmtAt(p, 1).(*ram.Query)
				outer := q.Root.(*ram.Scan)
				q.NumTuples = 2
				outer.Nested = &ram.Scan{
					Rel: outer.Rel, IndexID: -1, Pattern: make([]ram.Expr, 2),
					Bound:   &ram.Bound{Col: 0, Type: value.Number, Lo: &ram.TupleElement{TupleID: 0, Elem: 0}},
					TupleID: 1, Nested: outer.Nested,
				}
				return p
			},
			want: []string{RuleIndexBound},
		},
		{
			name: "swap with mismatched shapes",
			build: func() *ram.Program {
				p := tcProgram()
				one := rel(2, "one", 1)
				p.Relations = append(p.Relations, one)
				seq := p.Main.(*ram.Sequence)
				seq.Stmts = append(seq.Stmts, &ram.Swap{A: p.Relations[0], B: one})
				return p
			},
			want: []string{RuleSwapShape},
		},
		{
			name: "arity types disagreement",
			build: func() *ram.Program {
				p := tcProgram()
				p.Relations[1].Types = p.Relations[1].Types[:1]
				return p
			},
			want: []string{RuleRelTypes},
		},
		{
			name: "aux relation with dangling base",
			build: func() *ram.Program {
				p := tcProgram()
				aux := rel(2, "delta_path", 2)
				aux.Kind = ram.AuxDelta
				aux.BaseID = 9
				p.Relations = append(p.Relations, aux)
				return p
			},
			want: []string{RuleRelBase},
		},
		{
			name: "aux relation shadowing itself",
			build: func() *ram.Program {
				p := tcProgram()
				aux := rel(2, "delta_path", 2)
				aux.Kind = ram.AuxDelta // BaseID stays its own ID
				p.Relations = append(p.Relations, aux)
				return p
			},
			want: []string{RuleRelAux},
		},
		{
			name: "duplicate relation name",
			build: func() *ram.Program {
				p := tcProgram()
				dup := rel(2, "edge", 2)
				p.Relations = append(p.Relations, dup)
				return p
			},
			want: []string{RuleRelName},
		},
		{
			name: "duplicate load of a relation",
			build: func() *ram.Program {
				p := tcProgram()
				seq := p.Main.(*ram.Sequence)
				seq.Stmts = append(seq.Stmts, &ram.IO{Kind: ram.IOLoad, Rel: p.Relations[0]})
				return p
			},
			want: []string{RuleIODup},
		},
		{
			name: "load of a non-input relation",
			build: func() *ram.Program {
				p := tcProgram()
				seq := p.Main.(*ram.Sequence)
				seq.Stmts = append(seq.Stmts, &ram.IO{Kind: ram.IOLoad, Rel: p.Relations[1]})
				return p
			},
			want: []string{RuleIOFlag},
		},
		{
			name: "merge with mismatched arity",
			build: func() *ram.Program {
				p := tcProgram()
				one := rel(2, "one", 1)
				p.Relations = append(p.Relations, one)
				seq := p.Main.(*ram.Sequence)
				seq.Stmts = append(seq.Stmts, &ram.Merge{Dst: p.Relations[0], Src: one})
				return p
			},
			want: []string{RuleMergeShape},
		},
		{
			name: "binder slot outside query slot count",
			build: func() *ram.Program {
				p := tcProgram()
				q := stmtAt(p, 1).(*ram.Query)
				q.NumTuples = 0 // the scan binds t0
				return p
			},
			want: []string{RuleTupleSlot},
		},
		{
			name: "undeclared relation in scan",
			build: func() *ram.Program {
				p := tcProgram()
				q := stmtAt(p, 1).(*ram.Query)
				q.Root.(*ram.Scan).Rel = rel(9, "ghost", 2)
				return p
			},
			want: []string{RuleRelDeclared},
		},
		{
			name: "nil exit condition",
			build: func() *ram.Program {
				p := tcProgram()
				loop := stmtAt(p, 2).(*ram.Loop)
				loop.Body.(*ram.Sequence).Stmts[0].(*ram.Exit).Cond = nil
				return p
			},
			want: []string{RuleNilNode},
		},
		{
			name: "intrinsic with wrong argument count",
			build: func() *ram.Program {
				p := tcProgram()
				q := stmtAt(p, 1).(*ram.Query)
				proj := q.Root.(*ram.Scan).Nested.(*ram.Project)
				proj.Exprs[0] = &ram.Intrinsic{
					Op: ram.OpAdd, Type: value.Number,
					Args: []ram.Expr{&ram.Constant{Val: 1}},
				}
				return p
			},
			want: []string{RuleIntrinsicArgs},
		},
		{
			name: "pattern shorter than arity",
			build: func() *ram.Program {
				p := tcProgram()
				q := stmtAt(p, 1).(*ram.Query)
				scan := q.Root.(*ram.Scan)
				q.Root = &ram.Scan{
					Rel: scan.Rel, IndexID: 0,
					Pattern: []ram.Expr{&ram.Constant{Val: 1}},
					TupleID: 0, Nested: scan.Nested,
				}
				return p
			},
			want: []string{RulePatternArity},
		},
		{
			name: "sum aggregate without target",
			build: func() *ram.Program {
				p := tcProgram()
				q := stmtAt(p, 1).(*ram.Query)
				scan := q.Root.(*ram.Scan)
				q.NumTuples = 2
				q.Root = &ram.Aggregate{
					Kind: ram.AggSum, Rel: scan.Rel, IndexID: -1,
					Pattern: make([]ram.Expr, 2), Type: value.Number, TupleID: 0,
					Nested: &ram.Project{Rel: p.Relations[1], Exprs: []ram.Expr{
						&ram.TupleElement{TupleID: 0, Elem: 0},
						&ram.TupleElement{TupleID: 0, Elem: 0},
					}},
				}
				return p
			},
			want: []string{RuleAggTarget},
		},
	}

	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			diags := Program(tt.build())
			var got []string
			for _, d := range diags {
				got = append(got, d.Rule)
			}
			if len(got) != len(tt.want) {
				t.Fatalf("diagnostics = %v, want rules %v", diags, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Fatalf("diagnostic %d = %v, want rule %s", i, diags[i], tt.want[i])
				}
			}
		})
	}
}

// stmtAt returns the i-th statement of the program's top-level sequence.
func stmtAt(p *ram.Program, i int) ram.Statement {
	return p.Main.(*ram.Sequence).Stmts[i]
}

func TestAggregateResultIsOneTuple(t *testing.T) {
	// Inside an Aggregate's Nested, the slot holds the 1-tuple result:
	// reading element 1 must be rejected even though the relation has
	// arity 2.
	p := tcProgram()
	q := stmtAt(p, 1).(*ram.Query)
	scan := q.Root.(*ram.Scan)
	q.Root = &ram.Aggregate{
		Kind: ram.AggCount, Rel: scan.Rel, IndexID: -1,
		Pattern: make([]ram.Expr, 2), Type: value.Number, TupleID: 0,
		Nested: &ram.Project{Rel: p.Relations[1], Exprs: []ram.Expr{
			&ram.TupleElement{TupleID: 0, Elem: 0},
			&ram.TupleElement{TupleID: 0, Elem: 1}, // result has arity 1
		}},
	}
	diags := Program(p)
	if len(diags) != 1 || diags[0].Rule != RuleElemBounds {
		t.Fatalf("diagnostics = %v, want one %s", diags, RuleElemBounds)
	}
}

func TestTupleSlotVisibilityIsScoped(t *testing.T) {
	// A slot bound in one query must not leak into a sibling query.
	p := tcProgram()
	q := &ram.Query{Root: &ram.Project{
		Rel: p.Relations[1],
		Exprs: []ram.Expr{
			&ram.TupleElement{TupleID: 0, Elem: 0},
			&ram.TupleElement{TupleID: 0, Elem: 1},
		},
	}}
	seq := p.Main.(*ram.Sequence)
	seq.Stmts = append(seq.Stmts, q)
	diags := Program(p)
	if len(diags) != 2 {
		t.Fatalf("diagnostics = %v, want two %s", diags, RuleTupleUnbound)
	}
	for _, d := range diags {
		if d.Rule != RuleTupleUnbound {
			t.Fatalf("diagnostic = %v, want rule %s", d, RuleTupleUnbound)
		}
	}
}

func TestCheckReturnsTypedError(t *testing.T) {
	p := tcProgram()
	seq := p.Main.(*ram.Sequence)
	seq.Stmts = append(seq.Stmts, &ram.Exit{Cond: &ram.EmptinessCheck{Rel: p.Relations[0]}})
	err := Check(p, "unittest")
	verr, ok := err.(*Error)
	if !ok {
		t.Fatalf("Check returned %T, want *verify.Error", err)
	}
	if verr.Stage != "unittest" || len(verr.Diags) != 1 {
		t.Fatalf("error = %+v", verr)
	}
	msg := verr.Error()
	for _, want := range []string{"unittest", RuleExitInLoop, ">> "} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error text lacks %q:\n%s", want, msg)
		}
	}
	if err := Check(tcProgram(), "unittest"); err != nil {
		t.Fatalf("clean program: %v", err)
	}
}

func TestExcerptMarksOffendingLine(t *testing.T) {
	p := tcProgram()
	q := stmtAt(p, 1).(*ram.Query)
	proj := q.Root.(*ram.Scan).Nested.(*ram.Project)
	proj.Exprs[1].(*ram.TupleElement).Elem = 5
	diags := Program(p)
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %v", diags)
	}
	ex := Excerpt(p, diags[0])
	var marked string
	for _, line := range strings.Split(ex, "\n") {
		if strings.HasPrefix(line, ">> ") {
			marked = line
		}
	}
	if !strings.Contains(marked, "INSERT") || !strings.Contains(marked, "t0.5") {
		t.Fatalf("excerpt does not mark the bad INSERT:\n%s", ex)
	}
}

func TestConditionDetached(t *testing.T) {
	cond := &ram.And{
		L: &ram.Constraint{
			Op: ram.CmpLT, Type: value.Number,
			L: &ram.TupleElement{TupleID: 0, Elem: 1},
			R: &ram.Constant{Val: 10},
		},
		R: &ram.Constraint{
			Op: ram.CmpEQ, Type: value.Number,
			L: &ram.TupleElement{TupleID: 2, Elem: 0},
			R: &ram.TupleElement{TupleID: 0, Elem: 5},
		},
	}
	// t0 has arity 2, t2 is unbound, t0.5 is out of bounds.
	diags := Condition(cond, map[int]int{0: 2})
	var rules []string
	for _, d := range diags {
		rules = append(rules, d.Rule)
	}
	want := []string{RuleTupleUnbound, RuleElemBounds}
	if len(rules) != len(want) || rules[0] != want[0] || rules[1] != want[1] {
		t.Fatalf("rules = %v, want %v", rules, want)
	}
}

func TestFusedConditionPartialScope(t *testing.T) {
	cond := &ram.And{
		L: &ram.Constraint{
			Op: ram.CmpLT, Type: value.Number,
			L: &ram.TupleElement{TupleID: 2, Elem: 0}, // absent from scope: OK
			R: &ram.Constant{Val: 10},
		},
		R: &ram.Constraint{
			Op: ram.CmpEQ, Type: value.Number,
			L: &ram.TupleElement{TupleID: 0, Elem: 5}, // known slot, out of bounds
			R: &ram.Constant{Val: 0},
		},
	}
	// The fusion boundary treats its scope as partial (a caller may pass any
	// subset of the bound tuples), so a missing slot is not an error — but a
	// known slot still has its element reads bounds-checked.
	diags := FusedCondition(cond, map[int]int{0: 2})
	if len(diags) != 1 || diags[0].Rule != RuleElemBounds {
		t.Fatalf("diags = %v, want exactly one %s", diags, RuleElemBounds)
	}
	if diags := FusedCondition(cond, map[int]int{0: 6, 2: 1}); len(diags) != 0 {
		t.Fatalf("fully in-bounds condition flagged: %v", diags)
	}
}

func TestParallelFrozen(t *testing.T) {
	// Marking the copy query parallel is fine as-is: it reads edge and
	// writes path, which are disjoint.
	p := tcProgram()
	stmtAt(p, 1).(*ram.Query).Parallel = true
	if diags := Program(p); len(diags) > 0 {
		t.Fatalf("disjoint parallel query flagged: %v", diags)
	}

	// Rewriting the copy to insert into the relation it scans violates the
	// freeze invariant, but only when the query is parallel.
	build := func(parallel bool) *ram.Program {
		p := tcProgram()
		q := stmtAt(p, 1).(*ram.Query)
		q.Parallel = parallel
		q.Root.(*ram.Scan).Nested.(*ram.Project).Rel = p.Relations[0]
		return p
	}
	if diags := Program(build(false)); len(diags) > 0 {
		t.Fatalf("serial self-insert flagged: %v", diags)
	}
	diags := Program(build(true))
	if len(diags) != 1 || diags[0].Rule != RuleParallelFrozen {
		t.Fatalf("diags = %v, want exactly one %s", diags, RuleParallelFrozen)
	}

	// The read set includes condition checks: a parallel query that guards
	// on membership in its own insert target (dedup-at-insert) must be
	// rejected too — that is exactly the read the merge barrier defers.
	p2 := tcProgram()
	q2 := stmtAt(p2, 1).(*ram.Query)
	q2.Parallel = true
	scan := q2.Root.(*ram.Scan)
	proj := scan.Nested.(*ram.Project)
	scan.Nested = &ram.Filter{
		Cond: &ram.Not{C: &ram.ExistenceCheck{
			Rel: p2.Relations[1], IndexID: 0,
			Pattern: []ram.Expr{
				&ram.TupleElement{TupleID: 0, Elem: 0},
				&ram.TupleElement{TupleID: 0, Elem: 1},
			},
		}},
		Nested: proj,
	}
	diags = Program(p2)
	if len(diags) != 1 || diags[0].Rule != RuleParallelFrozen {
		t.Fatalf("diags = %v, want exactly one %s", diags, RuleParallelFrozen)
	}
}

// TestRangeBoundRule: a range bound must sit on the chosen order's column
// right after the equality prefix, read only enclosing tuples and constants,
// compare as number or unsigned, and not be on the query's outermost
// operation.
func TestRangeBoundRule(t *testing.T) {
	outerX := &ram.TupleElement{TupleID: 0, Elem: 0}
	build := func(b *ram.Bound, outermost bool) *ram.Program {
		p := tcProgram()
		edge, path := p.Relations[0], p.Relations[1]
		q := stmtAt(p, 1).(*ram.Query)
		inner := &ram.Scan{
			Rel: edge, Pattern: []ram.Expr{nil, nil}, Bound: b, TupleID: 1,
			Nested: &ram.Project{Rel: path, Exprs: []ram.Expr{
				&ram.TupleElement{TupleID: 1, Elem: 0},
				&ram.TupleElement{TupleID: 1, Elem: 1},
			}},
		}
		q.NumTuples = 2
		q.Root = &ram.Scan{Rel: edge, IndexID: -1, Pattern: make([]ram.Expr, 2), TupleID: 0, Nested: inner}
		if outermost {
			inner.TupleID = 0
			inner.Nested.(*ram.Project).Exprs = []ram.Expr{&ram.TupleElement{TupleID: 0, Elem: 0}, &ram.TupleElement{TupleID: 0, Elem: 1}}
			q.Root = inner
		}
		return p
	}
	for _, c := range []struct {
		name      string
		bound     *ram.Bound
		outermost bool
		want      int // index-bound diagnostics
	}{
		{"well formed", &ram.Bound{Col: 0, Type: value.Number, Lo: outerX, LoStrict: true}, false, 0},
		{"both limits", &ram.Bound{Col: 0, Type: value.Unsigned, Lo: outerX, Hi: &ram.Constant{Val: 9}}, false, 0},
		{"not the next column", &ram.Bound{Col: 1, Type: value.Number, Lo: outerX}, false, 1},
		{"reads its own tuple", &ram.Bound{Col: 0, Type: value.Number, Lo: &ram.TupleElement{TupleID: 1, Elem: 1}}, false, 1},
		{"float", &ram.Bound{Col: 0, Type: value.Float, Lo: outerX}, false, 1},
		{"no limit", &ram.Bound{Col: 0, Type: value.Number}, false, 1},
		{"outermost", &ram.Bound{Col: 0, Type: value.Number, Lo: &ram.Constant{Val: 3}}, true, 1},
	} {
		var got []Diag
		for _, d := range Program(build(c.bound, c.outermost)) {
			if d.Rule != RuleIndexBound {
				t.Errorf("%s: unexpected %v", c.name, d)
			}
			got = append(got, d)
		}
		if len(got) != c.want {
			t.Errorf("%s: %d index-bound diagnostic(s), want %d: %v", c.name, len(got), c.want, got)
		}
	}
}
