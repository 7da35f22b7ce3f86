// Package lint implements source-level diagnostics over parsed Datalog
// programs. The rules work on the AST alone — before semantic analysis — so
// they fire even on files sema rejects, and each one explains a likely
// authoring mistake rather than a hard error:
//
//	unused-relation        declared but never read, and not an output
//	unbound-head-var       head variable no positive body literal grounds
//	singleton-var          named variable used exactly once in its clause
//	always-empty-rule      body reads a relation that can never hold facts
//	unreachable-rule       derived facts can never reach an output
//	negation-in-recursion  negation through a recursive cycle (unstratifiable)
//	input-and-derived      rules derive an .input relation (loses the
//	                       incremental delete path: retraction cannot
//	                       attribute tuples to EDB vs rules)
//
// The groundedness rule reuses the checker's semantics via the exported
// sema.GroundVars helpers, so lint and sema never disagree about what is
// bound.
package lint

import (
	"fmt"
	"sort"
	"strings"

	"sti/internal/ast"
	"sti/internal/sema"
)

// Severity grades a diagnostic.
type Severity string

// The severities: errors mark programs sema would reject, warnings mark
// suspicious-but-valid code.
const (
	Error   Severity = "error"
	Warning Severity = "warning"
)

// Diagnostic is one lint finding, positioned in the source.
type Diagnostic struct {
	Path     string   `json:"path"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Code     string   `json:"code"`
	Severity Severity `json:"severity"`
	Msg      string   `json:"msg"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s [%s]", d.Path, d.Line, d.Col, d.Severity, d.Msg, d.Code)
}

// Check runs every rule over the parsed program and returns the findings
// sorted by position. path is used only to label diagnostics.
func Check(path string, prog *ast.Program) []Diagnostic {
	if prog == nil {
		return nil
	}
	c := &checker{path: path, prog: prog}
	c.unusedRelations()
	c.unboundHeadVars()
	c.singletonVars()
	c.alwaysEmptyRules()
	c.unreachableRules()
	c.negationInRecursion()
	c.inputAndDerived()
	sort.SliceStable(c.diags, func(i, j int) bool {
		a, b := c.diags[i], c.diags[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Code < b.Code
	})
	return c.diags
}

type checker struct {
	path  string
	prog  *ast.Program
	diags []Diagnostic
}

func (c *checker) add(pos ast.Pos, code string, sev Severity, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{
		Path:     c.path,
		Line:     pos.Line,
		Col:      pos.Col,
		Code:     code,
		Severity: sev,
		Msg:      fmt.Sprintf(format, args...),
	})
}

// directives returns the relation names carrying the given directive kinds.
func (c *checker) directives(kinds ...ast.DirectiveKind) map[string]bool {
	out := map[string]bool{}
	for _, d := range c.prog.Directives {
		for _, k := range kinds {
			if d.Kind == k {
				out[d.Rel] = true
			}
		}
	}
	return out
}

// bodyAtoms visits every atom read by a clause body: positive atoms,
// negated atoms, and atoms inside aggregate bodies, recursively.
func bodyAtoms(body []ast.Literal, fn func(at *ast.Atom, negated bool)) {
	for _, l := range body {
		switch l := l.(type) {
		case *ast.Atom:
			fn(l, false)
		case *ast.Negation:
			fn(l.Atom, true)
		}
	}
	// Aggregate bodies hide more reads inside expressions.
	ast.WalkLiterals(body, func(e ast.Expr) {
		if agg, ok := e.(*ast.Aggregate); ok {
			for _, l := range agg.Body {
				switch l := l.(type) {
				case *ast.Atom:
					fn(l, false)
				case *ast.Negation:
					fn(l.Atom, true)
				}
			}
		}
	})
}

// unusedRelations: a declared relation nothing reads and no .output or
// .printsize directive observes is dead weight.
func (c *checker) unusedRelations() {
	read := map[string]bool{}
	for _, cl := range c.prog.Clauses {
		bodyAtoms(cl.Body, func(at *ast.Atom, _ bool) { read[at.Name] = true })
	}
	observed := c.directives(ast.DirOutput, ast.DirPrintSize)
	for _, d := range c.prog.Decls {
		if !read[d.Name] && !observed[d.Name] {
			c.add(d.Pos, "unused-relation", Warning,
				"relation %s is declared but never read and never output", d.Name)
		}
	}
}

// unboundHeadVars: every head variable must be grounded by a positive body
// literal — the same rule sema enforces, surfaced per variable.
func (c *checker) unboundHeadVars() {
	for _, cl := range c.prog.Clauses {
		if cl.IsFact() {
			continue // fact groundedness is a constant-ness question, sema's job
		}
		bound := sema.GroundVars(cl.Body, nil)
		reported := map[string]bool{}
		for _, e := range cl.Head.Args {
			ast.WalkExpr(e, func(sub ast.Expr) {
				v, ok := sub.(*ast.Var)
				if !ok || bound[v.Name] || reported[v.Name] {
					return
				}
				reported[v.Name] = true
				c.add(v.Pos, "unbound-head-var", Error,
					"head variable %s is not bound by any positive body literal", v.Name)
			})
		}
	}
}

// singletonVars: a named variable used exactly once joins nothing and
// constrains nothing — it is almost always a typo for another variable or
// an intended wildcard.
func (c *checker) singletonVars() {
	for _, cl := range c.prog.Clauses {
		count := map[string]int{}
		first := map[string]ast.Pos{}
		cl.Walk(func(e ast.Expr) {
			if v, ok := e.(*ast.Var); ok {
				count[v.Name]++
				if count[v.Name] == 1 {
					first[v.Name] = v.Pos
				}
			}
		})
		var names []string
		for name, n := range count {
			if n == 1 {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			c.add(first[name], "singleton-var", Warning,
				"variable %s occurs only once in this clause; use _ if the value is irrelevant", name)
		}
	}
}

// alwaysEmptyRules: a forward fixpoint over "may hold facts" — a relation
// may be nonempty if it is an input, has a fact, or has a rule whose
// positive atoms may all be nonempty. A rule reading a never-nonempty
// relation positively can never fire.
func (c *checker) alwaysEmptyRules() {
	mayBeNonempty := c.directives(ast.DirInput)
	for _, cl := range c.prog.Clauses {
		if cl.IsFact() {
			mayBeNonempty[cl.Head.Name] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, cl := range c.prog.Clauses {
			if cl.IsFact() || mayBeNonempty[cl.Head.Name] {
				continue
			}
			feasible := true
			for _, l := range cl.Body {
				if at, ok := l.(*ast.Atom); ok && !mayBeNonempty[at.Name] {
					feasible = false
					break
				}
			}
			if feasible {
				mayBeNonempty[cl.Head.Name] = true
				changed = true
			}
		}
	}
	for _, cl := range c.prog.Clauses {
		if cl.IsFact() {
			continue
		}
		var empty []string
		seen := map[string]bool{}
		for _, l := range cl.Body {
			if at, ok := l.(*ast.Atom); ok && !mayBeNonempty[at.Name] && !seen[at.Name] {
				seen[at.Name] = true
				empty = append(empty, at.Name)
			}
		}
		if len(empty) > 0 {
			c.add(cl.Pos, "always-empty-rule", Warning,
				"rule can never fire: relation %s has no facts, no input, and no feasible rule",
				strings.Join(empty, ", "))
		}
	}
}

// unreachableRules: backward reachability from output/printsize sinks over
// the body→head dependence graph. A rule whose head cannot reach a sink
// computes results nothing observes. Programs with no sinks at all are
// skipped — they are driven through engine queries, where everything is
// observable.
func (c *checker) unreachableRules() {
	sinks := c.directives(ast.DirOutput, ast.DirPrintSize)
	if len(sinks) == 0 {
		return
	}
	// feeds[b] = set of head relations with b in the body.
	feeds := map[string]map[string]bool{}
	for _, cl := range c.prog.Clauses {
		bodyAtoms(cl.Body, func(at *ast.Atom, _ bool) {
			if feeds[at.Name] == nil {
				feeds[at.Name] = map[string]bool{}
			}
			feeds[at.Name][cl.Head.Name] = true
		})
	}
	// Backward: rel reaches a sink if it is a sink or feeds one that does.
	reaches := map[string]bool{}
	for rel := range sinks {
		reaches[rel] = true
	}
	for changed := true; changed; {
		changed = false
		for rel, heads := range feeds {
			if reaches[rel] {
				continue
			}
			for h := range heads {
				if reaches[h] {
					reaches[rel] = true
					changed = true
					break
				}
			}
		}
	}
	for _, cl := range c.prog.Clauses {
		if cl.IsFact() {
			continue
		}
		if !reaches[cl.Head.Name] {
			c.add(cl.Pos, "unreachable-rule", Warning,
				"rule derives %s, which never reaches an .output or .printsize relation", cl.Head.Name)
		}
	}
}

// negationInRecursion: Tarjan SCC over the relation dependence graph; a
// negated edge inside a cycle means the program has no stratification and
// sema will reject it.
func (c *checker) negationInRecursion() {
	type edge struct {
		from, to string
		negated  bool
		pos      ast.Pos
	}
	var edges []edge
	index := map[string]int{}
	nodeOf := func(name string) int {
		if i, ok := index[name]; ok {
			return i
		}
		i := len(index)
		index[name] = i
		return i
	}
	for _, cl := range c.prog.Clauses {
		head := cl.Head.Name
		nodeOf(head)
		bodyAtoms(cl.Body, func(at *ast.Atom, negated bool) {
			nodeOf(at.Name)
			edges = append(edges, edge{from: at.Name, to: head, negated: negated, pos: at.Pos})
		})
	}
	adj := make([][]int, len(index))
	for _, e := range edges {
		adj[index[e.from]] = append(adj[index[e.from]], index[e.to])
	}
	scc := tarjan(adj)
	for _, e := range edges {
		if e.negated && scc[index[e.from]] == scc[index[e.to]] {
			c.add(e.pos, "negation-in-recursion", Warning,
				"negation of %s inside a recursive cycle with %s; the program cannot be stratified",
				e.from, e.to)
		}
	}
}

// inputAndDerived: a rule head naming an .input relation makes its tuples
// attributable to both EDB assertions and derivations. Such relations
// silently force the resident database's full-recompute fallback — the
// delete program cannot decide which origin holds a tuple up — and are the
// most common reason an Apply stream loses the incremental path.
func (c *checker) inputAndDerived() {
	inputs := c.directives(ast.DirInput)
	warned := map[string]bool{}
	for _, cl := range c.prog.Clauses {
		if len(cl.Body) == 0 {
			continue // ground facts are EDB, not derivations
		}
		name := cl.Head.Name
		if !inputs[name] || warned[name] {
			continue
		}
		warned[name] = true
		c.add(cl.Pos, "input-and-derived", Warning,
			"relation %s is both .input and derived by rules; retraction cannot attribute its tuples, forcing the recompute fallback on every delete batch", name)
	}
}

// tarjan returns the strongly connected component ID of each node.
func tarjan(adj [][]int) []int {
	n := len(adj)
	const unvisited = -1
	idx := make([]int, n)
	low := make([]int, n)
	comp := make([]int, n)
	onStack := make([]bool, n)
	for i := range idx {
		idx[i], comp[i] = unvisited, unvisited
	}
	var stack []int
	next, comps := 0, 0
	var strongconnect func(v int)
	strongconnect = func(v int) {
		idx[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if idx[w] == unvisited {
				strongconnect(w)
				low[v] = min(low[v], low[w])
			} else if onStack[w] {
				low[v] = min(low[v], idx[w])
			}
		}
		if low[v] == idx[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = comps
				if w == v {
					break
				}
			}
			comps++
		}
	}
	for v := 0; v < n; v++ {
		if idx[v] == unvisited {
			strongconnect(v)
		}
	}
	return comp
}
