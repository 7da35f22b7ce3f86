package ram

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"strings"
	"testing"

	"sti/internal/value"
)

// nodeKinds parses ram.go and returns the name of every type that
// implements one of the node interfaces (Statement, Operation, Condition,
// Expr) through its marker method.
func nodeKinds(t *testing.T) []string {
	f, err := parser.ParseFile(token.NewFileSet(), "ram.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	markers := map[string]bool{"isStatement": true, "isOperation": true, "isCondition": true, "isExpr": true}
	var kinds []string
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || !markers[fn.Name.Name] {
			continue
		}
		recv := fn.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		kinds = append(kinds, recv.(*ast.Ident).Name)
	}
	if len(kinds) == 0 {
		t.Fatal("ram.go declares no node kinds")
	}
	return kinds
}

// everyKind builds a program holding every node kind, with search sites
// (scans, choices, aggregates, existence checks) in Main, Update and Delete.
// The name of a site's relation locates the site on its printed line.
func everyKind() *Program {
	r := func(id int, name string) *Relation { return rel(id, name, 2) }
	scanned, chosen, probed, folded, cleared, a, b := r(0, "scanned"), r(1, "chosen"), r(2, "probed"), r(3, "folded"), r(4, "cleared"), r(5, "a"), r(6, "b")
	updated, lookup, deleted, out := r(7, "updated"), r(8, "lookup"), r(9, "deleted"), r(10, "out")
	te := func(tid, elem int) Expr { return &TupleElement{TupleID: tid, Elem: elem} }
	num := func(n value.Value) Expr { return &Constant{Val: n} }
	query := &Query{Label: "every kind", Root: &Scan{
		Rel: scanned, TupleID: 0, Pattern: []Expr{nil, nil},
		Bound: &Bound{Col: 0, Lo: num(1), Hi: &Intrinsic{Op: OpAdd, Args: []Expr{num(2), num(3)}}},
		Nested: &Choice{
			Rel: chosen, TupleID: 1, Pattern: []Expr{te(0, 0), nil},
			Cond: &And{
				L: &ExistenceCheck{Rel: probed, Pattern: []Expr{nil, te(1, 1)}},
				R: &Not{C: &EmptinessCheck{Rel: a}},
			},
			Nested: &Filter{
				Cond: &Constraint{Op: CmpLT, L: te(0, 1), R: te(1, 0)},
				Nested: &Aggregate{
					Kind: AggSum, Rel: folded, TupleID: 2, Pattern: []Expr{te(1, 1), nil},
					Cond:   &ExistenceCheck{Rel: probed, Pattern: []Expr{te(2, 0), te(2, 1)}},
					Target: te(2, 1),
					Nested: &Project{Rel: out, Exprs: []Expr{te(0, 0), te(2, 0)}},
				},
			},
		},
	}}
	probe := func(rel, probed *Relation) Statement {
		return &Query{Label: rel.Name, Root: &Scan{
			Rel: rel, TupleID: 0, Pattern: []Expr{nil, nil},
			Nested: &Filter{
				Cond:   &ExistenceCheck{Rel: probed, Pattern: []Expr{te(0, 1), nil}},
				Nested: &Project{Rel: out, Exprs: []Expr{te(0, 0), te(0, 1)}},
			},
		}}
	}
	return &Program{
		Relations: []*Relation{scanned, chosen, probed, folded, cleared, a, b, updated, lookup, deleted, out},
		Main: &Sequence{Stmts: []Statement{
			&IO{Kind: IOLoad, Rel: scanned},
			&Loop{Label: "fixpoint", Body: &Sequence{Stmts: []Statement{
				query,
				&Exit{Cond: &EmptinessCheck{Rel: out}},
				&Swap{A: a, B: b},
				&Merge{Dst: a, Src: b},
				&Clear{Rel: cleared},
			}}},
			&Subtract{Dst: a, Src: b},
		}},
		Update: probe(updated, lookup),
		Delete: probe(deleted, lookup),
	}
}

// reachable adds to out every node reachable from v through pointers,
// interfaces, struct fields and slices; relations are references, not
// children, and are left out.
func reachable(v reflect.Value, out map[any]bool) {
	switch v.Kind() {
	case reflect.Interface:
		if !v.IsNil() {
			reachable(v.Elem(), out)
		}
	case reflect.Pointer:
		if v.IsNil() || v.Type() == reflect.TypeOf(&Relation{}) {
			return
		}
		out[v.Interface()] = true
		reachable(v.Elem(), out)
	case reflect.Struct:
		for i := range v.NumField() {
			reachable(v.Field(i), out)
		}
	case reflect.Slice:
		for i := range v.Len() {
			reachable(v.Index(i), out)
		}
	}
}

// TestInspectVisitsEveryKind checks that Inspect reaches an instance of every
// node kind ram.go declares, and every node of the program, and never hands f
// a nil node: a node kind or child added without a case in Inspect fails
// here.
func TestInspectVisitsEveryKind(t *testing.T) {
	seen := map[string]bool{}
	visited, want := map[any]bool{}, map[any]bool{}
	for _, s := range everyKind().Entries() {
		reachable(reflect.ValueOf(s), want)
		Inspect(s, func(n any) bool {
			v := reflect.ValueOf(n)
			if n == nil || v.Kind() == reflect.Pointer && v.IsNil() {
				t.Errorf("Inspect visits a nil %T", n)
				return false
			}
			seen[reflect.Indirect(v).Type().Name()] = true
			visited[n] = true
			return true
		})
	}
	for _, kind := range append(nodeKinds(t), "Bound") {
		if !seen[kind] {
			t.Errorf("Inspect never visits a %s", kind)
		}
	}
	for n := range want {
		if !visited[n] {
			t.Errorf("Inspect misses a %T", n)
		}
	}
}

// TestInspectPrinterOrder checks that Inspect visits the search sites in the
// order MarkedString renders them: by the line it marks for the site, then
// by where the site's relation is named on that line.
func TestInspectPrinterOrder(t *testing.T) {
	p := everyKind()
	type site struct {
		node      any
		rel       string
		line, col int
	}
	var visited []site
	for _, s := range p.Entries() {
		Inspect(s, func(n any) bool {
			switch n := n.(type) {
			case *Scan:
				visited = append(visited, site{node: n, rel: n.Rel.Name})
			case *Choice:
				visited = append(visited, site{node: n, rel: n.Rel.Name})
			case *Aggregate:
				visited = append(visited, site{node: n, rel: n.Rel.Name})
			case *ExistenceCheck:
				visited = append(visited, site{node: n, rel: n.Rel.Name})
			}
			return true
		})
	}
	if len(visited) != 9 {
		t.Fatalf("Inspect visits %d search sites, want 9", len(visited))
	}
	for i := range visited {
		s := &visited[i]
		s.line = -1
		for l, text := range strings.Split(p.MarkedString(s.node), "\n") {
			if strings.HasPrefix(text, ">> ") {
				s.line, s.col = l, strings.Index(text, " IN "+s.rel)
				break
			}
		}
		if s.line < 0 || s.col < 0 {
			t.Fatalf("MarkedString marks no line naming %s for its search", s.rel)
		}
	}
	rendered := sort.SliceIsSorted(visited, func(i, j int) bool {
		a, b := visited[i], visited[j]
		return a.line < b.line || a.line == b.line && a.col < b.col
	})
	if !rendered {
		var order []string
		for _, s := range visited {
			order = append(order, s.rel)
		}
		t.Errorf("Inspect visits the search sites out of printed order: %v", order)
	}
}

// TestInspectPrunes checks that f returning false skips exactly the node's
// subtree: the rest of the program is still visited.
func TestInspectPrunes(t *testing.T) {
	p := everyKind()
	var choice *Choice
	all := map[any]bool{}
	for _, s := range p.Entries() {
		Inspect(s, func(n any) bool {
			all[n] = true
			if c, ok := n.(*Choice); ok {
				choice = c
			}
			return true
		})
	}
	under := map[any]bool{}
	Inspect(choice, func(n any) bool {
		under[n] = n != any(choice)
		return true
	})
	pruned := map[any]bool{}
	for _, s := range p.Entries() {
		Inspect(s, func(n any) bool {
			pruned[n] = true
			return n != any(choice)
		})
	}
	for n := range all {
		if under[n] && pruned[n] {
			t.Errorf("pruned Inspect visits %T under the choice", n)
		}
		if !under[n] && !pruned[n] {
			t.Errorf("pruned Inspect misses %T outside the choice", n)
		}
	}
}
