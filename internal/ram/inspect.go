package ram

// Inspect traverses the RAM tree rooted at node in pre-order, in the manner
// of go/ast.Inspect: it calls f(node) and, when f returns true, inspects each
// non-nil child of node in turn, so returning false prunes node's subtree.
// Unlike go/ast.Inspect, f is never called with nil.
//
// node is a Statement, Operation, Condition, Expr or *Bound. Children come
// in the order the printer renders them: a search's pattern expressions and
// range bound, then its condition, then its nested operation (an aggregate's
// target expression, printed first, comes first). Relations are referenced,
// not owned, and are not visited.
//
// Inspect is the traversal of every read-only RAM analysis. Code that
// rewrites the tree or threads state down it keeps its own switch: the
// printer, the verifier, ramopt's rewriting walk and the backends'
// generators.
func Inspect(node any, f func(any) bool) {
	if node == nil || !f(node) {
		return
	}
	switch n := node.(type) {
	case *Sequence:
		for _, s := range n.Stmts {
			Inspect(s, f)
		}
	case *Loop:
		Inspect(n.Body, f)
	case *Exit:
		Inspect(n.Cond, f)
	case *Query:
		Inspect(n.Root, f)
	case *Scan:
		inspectSearch(n.Pattern, n.Bound, f)
		Inspect(n.Nested, f)
	case *Choice:
		inspectSearch(n.Pattern, n.Bound, f)
		Inspect(n.Cond, f)
		Inspect(n.Nested, f)
	case *Filter:
		Inspect(n.Cond, f)
		Inspect(n.Nested, f)
	case *Project:
		inspectExprs(n.Exprs, f)
	case *Aggregate:
		Inspect(n.Target, f)
		inspectExprs(n.Pattern, f)
		Inspect(n.Cond, f)
		Inspect(n.Nested, f)
	case *Bound:
		Inspect(n.Lo, f)
		Inspect(n.Hi, f)
	case *And:
		Inspect(n.L, f)
		Inspect(n.R, f)
	case *Not:
		Inspect(n.C, f)
	case *ExistenceCheck:
		inspectExprs(n.Pattern, f)
	case *Constraint:
		Inspect(n.L, f)
		Inspect(n.R, f)
	case *Intrinsic:
		inspectExprs(n.Args, f)
	}
}

// inspectSearch inspects a scan's or choice's pattern, then its bound.
func inspectSearch(pattern []Expr, b *Bound, f func(any) bool) {
	inspectExprs(pattern, f)
	if b != nil {
		Inspect(b, f)
	}
}

func inspectExprs(es []Expr, f func(any) bool) {
	for _, e := range es {
		Inspect(e, f)
	}
}
