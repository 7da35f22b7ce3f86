package ram

import (
	"fmt"
	"slices"
	"strings"
)

// String renders the program in the textual style of the paper's Fig 3.
func (p *Program) String() string {
	pr := &printer{}
	pr.program(p)
	return pr.b.String()
}

// MarkedString renders the program like String, but with a three-column
// gutter on every line; lines whose node is (or contains) mark carry a
// ">> " marker. mark may be a *Relation, Statement, Operation, Condition,
// or Expr that appears in p. The verifier uses this to point at the
// offending node of a diagnostic.
func (p *Program) MarkedString(mark any) string {
	pr := &printer{mark: mark, gutter: true}
	pr.program(p)
	return pr.b.String()
}

// printer renders a program line by line. When gutter is set, each line is
// prefixed with ">> " or "   " depending on whether any of the nodes the
// line renders equals — or, for conditions and expressions, contains — the
// marked node.
type printer struct {
	b      strings.Builder
	mark   any
	gutter bool
}

// line emits one output line at the given depth. nodes lists the RAM nodes
// rendered on this line, for mark matching.
func (p *printer) line(depth int, nodes []any, format string, args ...any) {
	if p.gutter {
		hit := false
		for _, n := range nodes {
			if nodeContains(n, p.mark) {
				hit = true
				break
			}
		}
		if hit {
			p.b.WriteString(">> ")
		} else {
			p.b.WriteString("   ")
		}
	}
	for i := 0; i < depth; i++ {
		p.b.WriteString("  ")
	}
	fmt.Fprintf(&p.b, format, args...)
	p.b.WriteByte('\n')
}

// nodeContains reports whether n is mark or, for condition/expression
// trees, patterns and bounds (which render inline on their parent's line),
// contains mark.
func nodeContains(n, mark any) bool {
	switch n := n.(type) {
	case nil:
		return false
	case *Relation, Statement, Operation:
		return n == mark
	case []Expr:
		return slices.ContainsFunc(n, func(e Expr) bool { return nodeContains(e, mark) })
	case *Bound:
		if n == nil {
			return false
		}
	}
	found := false
	Inspect(n, func(x any) bool {
		found = found || x == mark
		return !found
	})
	return found
}

func (p *printer) program(prog *Program) {
	for _, r := range prog.Relations {
		var flags strings.Builder
		if r.Input {
			flags.WriteString(" input")
		}
		if r.Output {
			flags.WriteString(" output")
		}
		if r.PrintSize {
			flags.WriteString(" printsize")
		}
		p.line(0, []any{r}, "DECL %s arity=%d rep=%s orders=%v%s",
			r.Name, r.Arity, r.Rep, r.Orders, flags.String())
	}
	p.stmt(prog.Main, 0)
	if prog.Update != nil {
		p.line(0, []any{prog.Update}, "UPDATE")
		p.stmt(prog.Update, 1)
	}
	if prog.Delete != nil {
		p.line(0, []any{prog.Delete}, "DELETE")
		p.stmt(prog.Delete, 1)
	}
}

func (p *printer) stmt(s Statement, depth int) {
	switch s := s.(type) {
	case *Sequence:
		for _, st := range s.Stmts {
			p.stmt(st, depth)
		}
	case *Loop:
		if s.Label != "" {
			p.line(depth, []any{s}, "LOOP ; %s", s.Label)
		} else {
			p.line(depth, []any{s}, "LOOP")
		}
		p.stmt(s.Body, depth+1)
		p.line(depth, []any{s}, "END LOOP")
	case *Exit:
		p.line(depth, []any{s, s.Cond}, "EXIT (%s)", CondString(s.Cond))
	case *Query:
		label := s.Label
		if label == "" {
			label = fmt.Sprintf("rule#%d", s.RuleID)
		}
		p.line(depth, []any{s}, "QUERY %s", label)
		p.op(s.Root, depth+1)
	case *Clear:
		p.line(depth, []any{s}, "CLEAR %s", relName(s.Rel))
	case *Swap:
		p.line(depth, []any{s}, "SWAP (%s, %s)", relName(s.A), relName(s.B))
	case *Merge:
		p.line(depth, []any{s}, "MERGE %s INTO %s", relName(s.Src), relName(s.Dst))
	case *Subtract:
		p.line(depth, []any{s}, "SUBTRACT %s FROM %s", relName(s.Src), relName(s.Dst))
	case *IO:
		switch s.Kind {
		case IOLoad:
			p.line(depth, []any{s}, "LOAD %s", relName(s.Rel))
		case IOStore:
			p.line(depth, []any{s}, "STORE %s", relName(s.Rel))
		default:
			p.line(depth, []any{s}, "PRINTSIZE %s", relName(s.Rel))
		}
	case nil:
		p.line(depth, nil, "<nil statement>")
	default:
		p.line(depth, []any{s}, "<%T>", s)
	}
}

func (p *printer) op(o Operation, depth int) {
	switch o := o.(type) {
	case *Scan:
		if Keyed(o.Pattern, o.Bound) {
			p.line(depth, []any{o, o.Pattern, o.Bound}, "FOR t%d IN %s ON INDEX %s",
				o.TupleID, relName(o.Rel), searchString(o.Pattern, o.Bound))
		} else {
			p.line(depth, []any{o}, "FOR t%d IN %s", o.TupleID, relName(o.Rel))
		}
		p.op(o.Nested, depth+1)
	case *Choice:
		if Keyed(o.Pattern, o.Bound) {
			p.line(depth, []any{o, o.Pattern, o.Bound, o.Cond}, "CHOICE t%d IN %s ON INDEX %s WHERE %s",
				o.TupleID, relName(o.Rel), searchString(o.Pattern, o.Bound), CondString(o.Cond))
		} else {
			p.line(depth, []any{o, o.Cond}, "CHOICE t%d IN %s WHERE %s",
				o.TupleID, relName(o.Rel), CondString(o.Cond))
		}
		p.op(o.Nested, depth+1)
	case *Filter:
		p.line(depth, []any{o, o.Cond}, "IF (%s)", CondString(o.Cond))
		p.op(o.Nested, depth+1)
	case *Project:
		exprs := make([]string, len(o.Exprs))
		for i, e := range o.Exprs {
			exprs[i] = ExprString(e)
		}
		p.line(depth, []any{o, o.Exprs}, "INSERT (%s) INTO %s",
			strings.Join(exprs, ", "), relName(o.Rel))
	case *Aggregate:
		target := ""
		if o.Target != nil {
			target = " " + ExprString(o.Target)
		}
		cond := ""
		if o.Cond != nil {
			cond = " WHERE " + CondString(o.Cond)
		}
		p.line(depth, []any{o, o.Pattern, o.Cond, o.Target}, "t%d = %s%s IN %s ON INDEX %s%s",
			o.TupleID, o.Kind, target, relName(o.Rel), patternString(o.Pattern), cond)
		p.op(o.Nested, depth+1)
	case nil:
		p.line(depth, nil, "<nil operation>")
	default:
		p.line(depth, []any{o}, "<%T>", o)
	}
}

// relName tolerates nil relation pointers so that malformed programs can
// still be rendered for diagnostics.
func relName(r *Relation) string {
	if r == nil {
		return "<nil relation>"
	}
	return r.Name
}

func patternString(pattern []Expr) string { return searchString(pattern, nil) }

// searchString renders a search's equality pattern ("1=t0.1") followed by
// its range bound, if any ("0>:number t0.0 AND 0<=:number 99").
func searchString(pattern []Expr, b *Bound) string {
	var parts []string
	for i, e := range pattern {
		if e != nil {
			parts = append(parts, fmt.Sprintf("%d=%s", i, ExprString(e)))
		}
	}
	if b != nil {
		side := func(e Expr, strict bool, op string) {
			if e == nil {
				return
			}
			if !strict {
				op += "="
			}
			parts = append(parts, fmt.Sprintf("%d%s:%s %s", b.Col, op, b.Type, ExprString(e)))
		}
		side(b.Lo, b.LoStrict, ">")
		side(b.Hi, b.HiStrict, "<")
	}
	if len(parts) == 0 {
		return "(full)"
	}
	return strings.Join(parts, " AND ")
}

// CondString renders a condition.
func CondString(c Condition) string {
	switch c := c.(type) {
	case *And:
		return CondString(c.L) + " AND " + CondString(c.R)
	case *Not:
		return "NOT (" + CondString(c.C) + ")"
	case *EmptinessCheck:
		return relName(c.Rel) + " = EMPTY"
	case *ExistenceCheck:
		return "(" + patternString(c.Pattern) + ") IN " + relName(c.Rel)
	case *Constraint:
		return fmt.Sprintf("%s %s:%s %s", ExprString(c.L), c.Op, c.Type, ExprString(c.R))
	case nil:
		return "<nil>"
	default:
		return fmt.Sprintf("<%T>", c)
	}
}

// ExprString renders an expression.
func ExprString(e Expr) string {
	switch e := e.(type) {
	case *Constant:
		return fmt.Sprintf("%d", e.Val)
	case *TupleElement:
		return fmt.Sprintf("t%d.%d", e.TupleID, e.Elem)
	case *Intrinsic:
		args := make([]string, len(e.Args))
		for i, a := range e.Args {
			args[i] = ExprString(a)
		}
		return fmt.Sprintf("%s:%s(%s)", e.Op, e.Type, strings.Join(args, ", "))
	case nil:
		return "<nil>"
	default:
		return fmt.Sprintf("<%T>", e)
	}
}
