// Package verify implements an LLVM-style structural verifier for RAM
// programs. Every transformation in the pipeline — AST→RAM translation
// (internal/ast2ram), RAM peephole optimization (internal/ramopt),
// condition fusion (internal/compile), and index selection
// (internal/indexselect) — must preserve a catalog of invariants: tuple
// slots are bound before use, arities agree everywhere, index searches hit
// declared order prefixes, EXIT only fires inside LOOP, and whole-relation
// statements target declared relations of compatible shape. The verifier
// walks a ram.Program once and reports every violation as a typed Diag
// value; it never panics and never mutates the program. The rules that
// need a query's read and write sets (parallel-frozen and the update-* and
// delete-* families) take them from analysis.QueryEffects.
//
// Run it after each pass with Check (or per-program with Program) to turn
// "wrong fixpoint three stages later" into "pass X emitted node Y violating
// rule Z", with the offending node marked in a ram print excerpt.
package verify

import (
	"fmt"
	"strings"

	"sti/internal/ram"
	"sti/internal/ram/analysis"
	"sti/internal/tuple"
)

// Rule identifiers, one per invariant. Stable strings so tests and tools
// can match on them.
const (
	RuleProgram        = "program"         // program-level shape (nil Main, nil relation)
	RuleRelID          = "rel-id"          // Relation.ID must equal its declaration index
	RuleRelName        = "rel-name"        // relation names are non-empty and unique
	RuleRelTypes       = "rel-types"       // len(Types) == Arity
	RuleRelOrder       = "rel-order"       // every order is a permutation of 0..arity-1
	RuleRelBase        = "rel-base"        // BaseID resolves to a declared relation
	RuleRelAux         = "rel-aux"         // aux relations shadow a live, compatible base
	RuleRelDeclared    = "rel-declared"    // operations reference declared relations
	RuleExitInLoop     = "exit-in-loop"    // Exit appears only under Loop
	RuleNilNode        = "nil-node"        // required child node is nil
	RuleSwapShape      = "swap-shape"      // Swap operands have identical signatures
	RuleMergeShape     = "merge-shape"     // Merge operands agree in arity and types
	RuleDeleteTarget   = "delete-target"   // SUBTRACT / COUNT-DELETE never shrink an eqrel relation
	RuleIOFlag         = "io-flag"         // IO statements match the relation's io flags
	RuleIODup          = "io-dup"          // a relation is loaded/stored at most once
	RuleTupleSlot      = "tuple-slot"      // binder TupleIDs fit the query's slot count
	RuleTupleRebound   = "tuple-rebound"   // a live tuple slot is never rebound
	RuleTupleUnbound   = "tuple-unbound"   // tuple reads see an enclosing binder
	RuleElemBounds     = "elem-bounds"     // TupleElement.Elem within the binder's arity
	RulePatternArity   = "pattern-arity"   // pattern length equals relation arity
	RuleIndexID        = "index-id"        // IndexID selects a declared order
	RuleIndexPrefix    = "index-prefix"    // bound pattern positions form an order prefix
	RuleProjectArity   = "project-arity"   // Project expression count equals target arity
	RuleAggTarget      = "agg-target"      // sum/min/max aggregates carry a target
	RuleIntrinsicArgs  = "intrinsic-args"  // intrinsics receive the right argument count
	RuleParallelFrozen = "parallel-frozen" // parallel queries never read their insert targets

	// Shard-plan invariant: under shard-parallel evaluation a shard only
	// writes its own partition outside the exchange step. The static side
	// of that guarantee is plan alignment — a stamped shard key must be a
	// real column, relations that cannot hash (nullary, eqrel) must carry
	// no plan, aux relations must partition exactly like their base, and
	// SWAP/MERGE/SUBTRACT operands must agree on the key — so every bulk
	// statement moves whole partitions between aligned shards and only the
	// routed barrier merge ever crosses them. The runtime side is
	// relation.CheckShardLocal.
	RuleShardLocal = "shard-local-writes"

	// Update-program invariants (Program.Update, the delta-restart entry
	// point of resident engines). Snapshot readers are only locked out
	// while Update runs, so everything it touches must stay inside the
	// scratch space of its own stratum.
	RuleUpdateNoIO    = "update-no-io"   // the update program performs no IO
	RuleUpdateWrite   = "update-write"   // update inserts target aux or eqrel relations only
	RuleUpdateStratum = "update-stratum" // update writes never target a lower stratum than a read
	RuleUpdateAlias   = "update-alias"   // update queries never read their insert targets

	// Delete-program invariants (Program.Delete, the counting/DRed
	// retraction entry point). The delete program must compute the dying
	// sets without touching the physical relations — only the final
	// SUBTRACT statements remove tuples — so every insert stays inside the
	// delete scratch space and rederivation never runs before its
	// stratum's overdeletion has converged.
	RuleDeleteNoIO  = "delete-no-io"               // the delete program performs no IO
	RuleDeleteWrite = "delete-write-targets"       // delete inserts target delete-scratch aux relations only
	RuleDeleteOrder = "overdelete-before-rederive" // per base relation, del-family writes precede all red-family writes
	RuleCountShape  = "counts-nonnegative"         // COUNT-MERGE/COUNT-DELETE operands carry support counts of matching shape
)

// Diag is one invariant violation: the offending node (nil for
// program-level problems), the violated rule, and a human-readable message.
type Diag struct {
	Node any    // *ram.Relation, Statement, Operation, Condition, or Expr
	Rule string // one of the Rule* constants
	Msg  string
}

func (d Diag) String() string {
	return fmt.Sprintf("ramverify[%s]: %s", d.Rule, d.Msg)
}

// Error aggregates the diagnostics of one verification run as an error.
// When Prog is set, Error() includes a marked source excerpt per
// diagnostic so debug-mode failures are actionable.
type Error struct {
	Stage string // pipeline stage that produced the program, e.g. "ramopt"
	Prog  *ram.Program
	Diags []Diag
}

func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ram verification failed after %s: %d invariant violation(s)", e.Stage, len(e.Diags))
	for _, d := range e.Diags {
		b.WriteString("\n  ")
		b.WriteString(d.String())
		if e.Prog != nil && d.Node != nil {
			if ex := Excerpt(e.Prog, d); ex != "" {
				b.WriteByte('\n')
				b.WriteString(indent(ex, "    "))
			}
		}
	}
	return b.String()
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n")
}

// Check verifies p and returns a *Error naming stage when any invariant is
// violated, nil otherwise.
func Check(p *ram.Program, stage string) error {
	if diags := Program(p); len(diags) > 0 {
		return &Error{Stage: stage, Prog: p, Diags: diags}
	}
	return nil
}

// Program verifies a whole RAM program and returns every violation found,
// in traversal order. A nil return means the program is well-formed.
func Program(p *ram.Program) []Diag {
	c := &checker{p: p, declared: map[*ram.Relation]bool{}}
	if p == nil {
		return []Diag{{Rule: RuleProgram, Msg: "nil program"}}
	}
	c.relations()
	if p.Main == nil {
		c.addf(nil, RuleProgram, "program has no Main statement")
	} else {
		c.stmt(p.Main, false)
	}
	if p.Update != nil {
		c.inUpdate = true
		c.stmt(p.Update, false)
		c.inUpdate = false
	}
	if p.Delete != nil {
		c.inDelete = true
		c.redTouched = map[int]bool{}
		c.stmt(p.Delete, false)
		c.inDelete = false
	}
	return c.diags
}

// Condition verifies a stand-alone condition against an explicit, complete
// tuple scope: arities maps each bound tuple ID to the arity of its binding
// relation, and reads of any other tuple ID are unbound-slot violations.
// Relation-membership checks are skipped when the condition is detached
// from a program.
func Condition(cond ram.Condition, arities map[int]int) []Diag {
	return condition(cond, arities, false)
}

// FusedCondition verifies a condition at the condition-fusion boundary
// (the interpreter's generator.fuse, interp/fuse.go). The scope there is
// what tree generation has bound so far — arities carries those tuples'
// widths — and is treated as *partial*: reads of tuples absent from arities
// are legal and only structural rules and known element bounds are
// enforced, so a caller may pass any subset of the bound tuples.
func FusedCondition(cond ram.Condition, arities map[int]int) []Diag {
	return condition(cond, arities, true)
}

func condition(cond ram.Condition, arities map[int]int, partial bool) []Diag {
	c := &checker{declared: map[*ram.Relation]bool{}, partialScope: partial}
	sc := scope{}
	for tid, ar := range arities {
		sc[tid] = binding{arity: ar}
	}
	if cond == nil {
		c.addf(nil, RuleNilNode, "nil condition")
	} else {
		c.cond(cond, sc)
	}
	return c.diags
}

// binding records what a bound tuple slot holds inside a query.
type binding struct {
	rel   *ram.Relation // nil for detached conditions
	arity int
}

// scope maps bound tuple IDs to their bindings. Binders copy the scope so
// sibling branches cannot see each other's slots.
type scope map[int]binding

func (s scope) with(tid int, b binding) scope {
	n := make(scope, len(s)+1)
	for k, v := range s {
		n[k] = v
	}
	n[tid] = b
	return n
}

type checker struct {
	p        *ram.Program
	declared map[*ram.Relation]bool
	ioSeen   map[ioKey]bool
	diags    []Diag
	// partialScope marks a detached check whose scope covers only some
	// bound tuples; reads of absent slots are then not violations.
	partialScope bool
	// inUpdate marks traversal of Program.Update, where the Rule-Update*
	// invariants apply.
	inUpdate bool
	// inDelete marks traversal of Program.Delete, where the Rule-Delete*
	// invariants apply.
	inDelete bool
	// redTouched records, per BaseID, that the delete walk has written a
	// rederivation-family relation; later del-family writes of the same
	// base violate overdelete-before-rederive.
	redTouched map[int]bool
}

// ioKey identifies one I/O action on one relation, for duplicate detection.
type ioKey struct {
	rel  *ram.Relation
	kind ram.IOKind
}

func (c *checker) addf(node any, rule, format string, args ...any) {
	c.diags = append(c.diags, Diag{Node: node, Rule: rule, Msg: fmt.Sprintf(format, args...)})
}

// --- relations ---

func (c *checker) relations() {
	byName := map[string]int{}
	for i, r := range c.p.Relations {
		if r == nil {
			c.addf(nil, RuleProgram, "relation declaration %d is nil", i)
			continue
		}
		c.declared[r] = true
		if r.ID != i {
			c.addf(r, RuleRelID, "relation %s has ID %d but is declared at index %d", r.Name, r.ID, i)
		}
		if r.Name == "" {
			c.addf(r, RuleRelName, "relation at index %d has an empty name", i)
		} else if prev, dup := byName[r.Name]; dup {
			c.addf(r, RuleRelName, "relation %s declared twice (indexes %d and %d)", r.Name, prev, i)
		} else {
			byName[r.Name] = i
		}
		if len(r.Types) != r.Arity {
			c.addf(r, RuleRelTypes, "relation %s has arity %d but %d attribute types", r.Name, r.Arity, len(r.Types))
		}
		for oi, ord := range r.Orders {
			if !isPermutation(ord, r.Arity) {
				c.addf(r, RuleRelOrder, "relation %s order %d = %v is not a permutation of 0..%d", r.Name, oi, ord, r.Arity-1)
			}
		}
		if r.BaseID < 0 || r.BaseID >= len(c.p.Relations) {
			c.addf(r, RuleRelBase, "relation %s has BaseID %d outside the declaration range [0,%d)", r.Name, r.BaseID, len(c.p.Relations))
			continue
		}
		base := c.p.Relations[r.BaseID]
		if r.Aux {
			switch {
			case base == nil || r.BaseID == r.ID:
				c.addf(r, RuleRelAux, "aux relation %s has no distinct base relation", r.Name)
			case base.Aux:
				c.addf(r, RuleRelAux, "aux relation %s shadows aux relation %s", r.Name, base.Name)
			case base.Arity != r.Arity:
				c.addf(r, RuleRelAux, "aux relation %s has arity %d but base %s has arity %d", r.Name, r.Arity, base.Name, base.Arity)
			}
			if r.Input || r.Output || r.PrintSize {
				c.addf(r, RuleRelAux, "aux relation %s must not carry io flags", r.Name)
			}
		} else if r.BaseID != r.ID {
			c.addf(r, RuleRelBase, "source relation %s has BaseID %d, want its own ID %d", r.Name, r.BaseID, r.ID)
		}
		c.shardPlan(r, base)
	}
}

// shardPlan checks the shard-local-writes invariants of one declaration's
// stamped plan (ShardKey == 0 means unstamped and is always legal).
func (c *checker) shardPlan(r, base *ram.Relation) {
	if r.ShardKey == 0 {
		// An unstamped aux of a stamped base would split at SWAP barriers:
		// one side sharded, the other not.
		if r.Aux && base != nil && base.ShardKey != 0 && base.Rep != ram.RepEqRel {
			c.addf(r, RuleShardLocal, "aux relation %s carries no shard plan but base %s partitions on column %d",
				r.Name, base.Name, base.ShardCol())
		}
		return
	}
	if r.Arity == 0 {
		c.addf(r, RuleShardLocal, "nullary relation %s carries shard key %d; nullary relations cannot hash-partition", r.Name, r.ShardKey)
		return
	}
	if r.Rep == ram.RepEqRel {
		c.addf(r, RuleShardLocal, "eqrel relation %s carries shard key %d; no hash partition is closed under its congruence", r.Name, r.ShardKey)
		return
	}
	if r.ShardKey < 1 || r.ShardKey > r.Arity {
		c.addf(r, RuleShardLocal, "relation %s shard key %d is outside columns 1..%d", r.Name, r.ShardKey, r.Arity)
		return
	}
	if r.Aux && base != nil && base.Rep != ram.RepEqRel && base.ShardKey != r.ShardKey {
		c.addf(r, RuleShardLocal, "aux relation %s partitions on column %d but base %s partitions on %d; swaps and merges would cross shards",
			r.Name, r.ShardCol(), base.Name, base.ShardCol())
	}
}

func isPermutation(ord []int, arity int) bool {
	if len(ord) != arity {
		return false
	}
	seen := make([]bool, arity)
	for _, p := range ord {
		if p < 0 || p >= arity || seen[p] {
			return false
		}
		seen[p] = true
	}
	return true
}

// relDeclared checks an operation's relation pointer and reports whether
// downstream shape checks can proceed.
func (c *checker) relDeclared(node any, rel *ram.Relation, what string) bool {
	if rel == nil {
		c.addf(node, RuleNilNode, "%s has a nil relation", what)
		return false
	}
	if !c.declared[rel] {
		c.addf(node, RuleRelDeclared, "%s references undeclared relation %s", what, rel.Name)
		return false
	}
	return true
}

// --- statements ---

func (c *checker) stmt(s ram.Statement, inLoop bool) {
	switch s := s.(type) {
	case *ram.Sequence:
		for i, st := range s.Stmts {
			if st == nil {
				c.addf(s, RuleNilNode, "sequence statement %d is nil", i)
				continue
			}
			c.stmt(st, inLoop)
		}
	case *ram.Loop:
		if s.Body == nil {
			c.addf(s, RuleNilNode, "loop has a nil body")
			return
		}
		c.stmt(s.Body, true)
	case *ram.Exit:
		if !inLoop {
			c.addf(s, RuleExitInLoop, "EXIT outside of any LOOP")
		}
		if s.Cond == nil {
			c.addf(s, RuleNilNode, "EXIT has a nil condition")
			return
		}
		// Statement-level conditions run outside any query: no tuple is in
		// scope, so every TupleElement is a violation.
		c.cond(s.Cond, scope{})
	case *ram.Query:
		if s.Root == nil {
			c.addf(s, RuleNilNode, "query %q has a nil root operation", s.Label)
			return
		}
		c.op(s.Root, s, scope{})
		c.parallelFrozen(s)
		if c.inUpdate {
			c.updateQuery(s)
		}
		if c.inDelete {
			c.deleteQuery(s)
		}
	case *ram.Clear:
		c.relDeclared(s, s.Rel, "CLEAR")
	case *ram.Swap:
		okA := c.relDeclared(s, s.A, "SWAP")
		okB := c.relDeclared(s, s.B, "SWAP")
		if okA && okB && !sameShape(s.A, s.B) {
			c.addf(s, RuleSwapShape, "SWAP (%s, %s) operands differ in arity, types, representation, or index orders", s.A.Name, s.B.Name)
		}
		if okA && okB && s.A.ShardKey != s.B.ShardKey {
			c.addf(s, RuleShardLocal, "SWAP (%s, %s) operands partition on different shard keys (%d vs %d)",
				s.A.Name, s.B.Name, s.A.ShardKey, s.B.ShardKey)
		}
		if c.inDelete && okA && okB {
			c.deleteWrite(s, s.A, "SWAP")
			c.deleteWrite(s, s.B, "SWAP")
		}
	case *ram.Merge:
		okD := c.relDeclared(s, s.Dst, "MERGE")
		okS := c.relDeclared(s, s.Src, "MERGE")
		if okD && okS {
			if s.Dst.Arity != s.Src.Arity || !sameTypes(s.Dst, s.Src) {
				c.addf(s, RuleMergeShape, "MERGE %s INTO %s with mismatched signatures (arity %d vs %d)", s.Src.Name, s.Dst.Name, s.Src.Arity, s.Dst.Arity)
			}
			if s.Dst.ShardKey != 0 && s.Src.ShardKey != 0 && s.Dst.ShardKey != s.Src.ShardKey {
				c.addf(s, RuleShardLocal, "MERGE %s INTO %s across shard keys (%d vs %d)",
					s.Src.Name, s.Dst.Name, s.Src.ShardKey, s.Dst.ShardKey)
			}
			if c.inUpdate && s.Dst.Stratum < s.Src.Stratum {
				c.addf(s, RuleUpdateStratum, "update MERGE %s INTO %s writes stratum %d from stratum %d", s.Src.Name, s.Dst.Name, s.Dst.Stratum, s.Src.Stratum)
			}
			if c.inDelete {
				c.deleteWrite(s, s.Dst, "MERGE")
			}
		}
	case *ram.Subtract:
		okD := c.relDeclared(s, s.Dst, "SUBTRACT")
		okS := c.relDeclared(s, s.Src, "SUBTRACT")
		if okD && okS && (s.Dst.Arity != s.Src.Arity || !sameTypes(s.Dst, s.Src)) {
			c.addf(s, RuleMergeShape, "SUBTRACT %s FROM %s with mismatched signatures (arity %d vs %d)", s.Src.Name, s.Dst.Name, s.Src.Arity, s.Dst.Arity)
		}
		if okD {
			c.deleteTarget(s, s.Dst, "SUBTRACT")
		}
		// SUBTRACT is the one statement allowed to shrink non-scratch
		// relations (the phase-B removal pass and del := del - red), so it
		// is exempt from delete-write-targets and the ordering rule.
	case *ram.CountMerge:
		okD := c.relDeclared(s, s.Dst, "COUNT-MERGE")
		okS := c.relDeclared(s, s.Src, "COUNT-MERGE")
		okF := c.relDeclared(s, s.Fresh, "COUNT-MERGE")
		if okD && okS && okF {
			c.countShape(s, "COUNT-MERGE", s.Dst, s.Src)
			if s.Fresh.Kind != ram.AuxRecent {
				c.addf(s, RuleCountShape, "COUNT-MERGE into %s reports fresh tuples to %s (kind %s), want a recent tracker", s.Dst.Name, s.Fresh.Name, s.Fresh.Kind)
			}
			if s.Dst.Arity != s.Fresh.Arity || !sameTypes(s.Dst, s.Fresh) {
				c.addf(s, RuleCountShape, "COUNT-MERGE into %s and fresh tracker %s have mismatched signatures (arity %d vs %d)", s.Dst.Name, s.Fresh.Name, s.Dst.Arity, s.Fresh.Arity)
			}
		}
	case *ram.CountDelete:
		okD := c.relDeclared(s, s.Dst, "COUNT-DELETE")
		okS := c.relDeclared(s, s.Src, "COUNT-DELETE")
		okG := c.relDeclared(s, s.Gone, "COUNT-DELETE")
		if okD && okS && okG {
			c.deleteTarget(s, s.Dst, "COUNT-DELETE")
			c.countShape(s, "COUNT-DELETE", s.Dst, s.Src)
			if s.Gone.Kind != ram.AuxDel {
				c.addf(s, RuleCountShape, "COUNT-DELETE from %s reports dead tuples to %s (kind %s), want a del tracker", s.Dst.Name, s.Gone.Name, s.Gone.Kind)
			}
			if s.Dst.Arity != s.Gone.Arity || !sameTypes(s.Dst, s.Gone) {
				c.addf(s, RuleCountShape, "COUNT-DELETE from %s and del tracker %s have mismatched signatures (arity %d vs %d)", s.Dst.Name, s.Gone.Name, s.Dst.Arity, s.Gone.Arity)
			}
			if c.inDelete {
				c.deleteWrite(s, s.Gone, "COUNT-DELETE")
			}
		}
	case *ram.IO:
		if !c.relDeclared(s, s.Rel, "IO") {
			return
		}
		if c.inUpdate {
			c.addf(s, RuleUpdateNoIO, "update program performs IO on %s", s.Rel.Name)
		}
		if c.inDelete {
			c.addf(s, RuleDeleteNoIO, "delete program performs IO on %s", s.Rel.Name)
		}
		if c.ioSeen == nil {
			c.ioSeen = map[ioKey]bool{}
		}
		if key := (ioKey{s.Rel, s.Kind}); c.ioSeen[key] {
			c.addf(s, RuleIODup, "relation %s is subject to the same IO action twice", s.Rel.Name)
		} else {
			c.ioSeen[key] = true
		}
		switch s.Kind {
		case ram.IOLoad:
			if !s.Rel.Input {
				c.addf(s, RuleIOFlag, "LOAD targets %s, which is not declared .input", s.Rel.Name)
			}
		case ram.IOStore:
			if !s.Rel.Output {
				c.addf(s, RuleIOFlag, "STORE targets %s, which is not declared .output", s.Rel.Name)
			}
		case ram.IOPrintSize:
			if !s.Rel.PrintSize {
				c.addf(s, RuleIOFlag, "PRINTSIZE targets %s, which is not declared .printsize", s.Rel.Name)
			}
		default:
			c.addf(s, RuleIOFlag, "unknown IO kind %d on %s", s.Kind, s.Rel.Name)
		}
	case *ram.LogTimer:
		if s.Stmt == nil {
			c.addf(s, RuleNilNode, "TIMER %q has a nil statement", s.Label)
			return
		}
		c.stmt(s.Stmt, inLoop)
	default:
		c.addf(s, RuleProgram, "unknown statement type %T", s)
	}
}

func sameShape(a, b *ram.Relation) bool {
	if a.Arity != b.Arity || a.Rep != b.Rep || !sameTypes(a, b) {
		return false
	}
	if len(a.Orders) != len(b.Orders) {
		return false
	}
	for i := range a.Orders {
		if len(a.Orders[i]) != len(b.Orders[i]) {
			return false
		}
		for j := range a.Orders[i] {
			if a.Orders[i][j] != b.Orders[i][j] {
				return false
			}
		}
	}
	return true
}

func sameTypes(a, b *ram.Relation) bool {
	if len(a.Types) != len(b.Types) {
		return false
	}
	for i := range a.Types {
		if a.Types[i] != b.Types[i] {
			return false
		}
	}
	return true
}

// --- operations ---

// bind checks a binder's tuple slot and returns the extended scope.
func (c *checker) bind(node any, q *ram.Query, sc scope, tid int, b binding) scope {
	if tid < 0 || tid >= q.NumTuples {
		c.addf(node, RuleTupleSlot, "binder uses tuple slot t%d, outside the query's %d slot(s)", tid, q.NumTuples)
	}
	if _, live := sc[tid]; live {
		c.addf(node, RuleTupleRebound, "tuple slot t%d rebound while still live", tid)
	}
	return sc.with(tid, b)
}

func (c *checker) op(o ram.Operation, q *ram.Query, sc scope) {
	switch o := o.(type) {
	case *ram.Scan:
		if !c.relDeclared(o, o.Rel, "scan") {
			return
		}
		inner := c.bind(o, q, sc, o.TupleID, binding{rel: o.Rel, arity: o.Rel.Arity})
		c.nested(o, o.Nested, q, inner)
	case *ram.IndexScan:
		if !c.relDeclared(o, o.Rel, "index scan") {
			return
		}
		c.search(o, o.Rel, o.IndexID, o.Pattern, sc, "index scan", false)
		inner := c.bind(o, q, sc, o.TupleID, binding{rel: o.Rel, arity: o.Rel.Arity})
		c.nested(o, o.Nested, q, inner)
	case *ram.Choice:
		if !c.relDeclared(o, o.Rel, "choice") {
			return
		}
		inner := c.bind(o, q, sc, o.TupleID, binding{rel: o.Rel, arity: o.Rel.Arity})
		if o.Cond != nil { // nil means unconditional: first tuple wins
			c.cond(o.Cond, inner)
		}
		c.nested(o, o.Nested, q, inner)
	case *ram.IndexChoice:
		if !c.relDeclared(o, o.Rel, "index choice") {
			return
		}
		c.search(o, o.Rel, o.IndexID, o.Pattern, sc, "index choice", false)
		inner := c.bind(o, q, sc, o.TupleID, binding{rel: o.Rel, arity: o.Rel.Arity})
		if o.Cond != nil {
			c.cond(o.Cond, inner)
		}
		c.nested(o, o.Nested, q, inner)
	case *ram.Filter:
		if o.Cond == nil {
			c.addf(o, RuleNilNode, "filter has a nil condition")
		} else {
			c.cond(o.Cond, sc)
		}
		c.nested(o, o.Nested, q, sc)
	case *ram.Project:
		if !c.relDeclared(o, o.Rel, "insert") {
			return
		}
		if len(o.Exprs) != o.Rel.Arity {
			c.addf(o, RuleProjectArity, "INSERT into %s supplies %d expression(s), relation has arity %d", o.Rel.Name, len(o.Exprs), o.Rel.Arity)
		}
		for i, e := range o.Exprs {
			if e == nil {
				c.addf(o, RuleNilNode, "INSERT into %s has a nil expression at position %d", o.Rel.Name, i)
				continue
			}
			c.expr(e, sc)
		}
	case *ram.Aggregate:
		if !c.relDeclared(o, o.Rel, "aggregate") {
			return
		}
		c.search(o, o.Rel, o.IndexID, o.Pattern, sc, "aggregate", true)
		// Target and Cond see the candidate tuple at full arity...
		candidate := c.bind(o, q, sc, o.TupleID, binding{rel: o.Rel, arity: o.Rel.Arity})
		if o.Cond != nil {
			c.cond(o.Cond, candidate)
		}
		if o.Target != nil {
			c.expr(o.Target, candidate)
		} else if o.Kind != ram.AggCount {
			c.addf(o, RuleAggTarget, "%s aggregate over %s has no target expression", o.Kind, o.Rel.Name)
		}
		// ...while Nested sees only the 1-tuple result in the same slot.
		result := sc.with(o.TupleID, binding{arity: 1})
		c.nested(o, o.Nested, q, result)
	default:
		c.addf(o, RuleProgram, "unknown operation type %T", o)
	}
}

// parallelFrozen enforces the invariant parallel evaluation rests on: a
// parallel query's insert targets must be disjoint from every relation the
// query reads (scans, choices, aggregates, and existence/emptiness checks).
// Semi-naive translation guarantees this — recursive rules read the full
// and delta relations and insert into @new — and the interpreter exploits
// it by deferring worker inserts to a merge at the scan barrier; a query
// that read its own target would observe a relation frozen mid-iteration.
func (c *checker) parallelFrozen(q *ram.Query) {
	if !q.Parallel {
		return
	}
	reads, writes := analysis.QueryEffects(q)
	for rel := range writes {
		if rel != nil && reads[rel] {
			c.addf(q, RuleParallelFrozen, "parallel query %q inserts into %s and also reads it", q.Label, rel.Name)
		}
	}
}

// updateQuery enforces the invariants snapshot isolation rests on: queries
// of the update program insert only into scratch relations (aux or eqrel),
// never into a lower stratum than anything they read, and never into a
// relation they also read (so a half-evaluated query is invisible even to
// the update pass itself).
func (c *checker) updateQuery(q *ram.Query) {
	reads, writes := analysis.QueryEffects(q)
	for rel := range writes {
		if rel == nil {
			continue
		}
		if !rel.Aux && rel.Rep != ram.RepEqRel {
			c.addf(q, RuleUpdateWrite, "update query %q inserts into source relation %s (want an aux or eqrel target)", q.Label, rel.Name)
		}
		if reads[rel] {
			c.addf(q, RuleUpdateAlias, "update query %q inserts into %s and also reads it", q.Label, rel.Name)
		}
		for rd := range reads {
			if rd != nil && rel.Stratum < rd.Stratum {
				c.addf(q, RuleUpdateStratum, "update query %q writes %s (stratum %d) while reading %s (stratum %d)", q.Label, rel.Name, rel.Stratum, rd.Name, rd.Stratum)
			}
		}
	}
}

// countShape checks the (Dst, Src) pair shared by COUNT-MERGE and
// COUNT-DELETE: the destination maintains per-tuple support counts, the
// source is a multiplicity buffer, and their signatures agree — the shape
// that keeps support counts non-negative and exact.
func (c *checker) countShape(node any, what string, dst, src *ram.Relation) {
	if !dst.Counting {
		c.addf(node, RuleCountShape, "%s targets %s, which does not maintain support counts", what, dst.Name)
	}
	if src.Kind != ram.AuxCount {
		c.addf(node, RuleCountShape, "%s reads multiplicities from %s (kind %s), want a count buffer", what, src.Name, src.Kind)
	} else if !src.Counting {
		c.addf(node, RuleCountShape, "%s count buffer %s does not maintain support counts", what, src.Name)
	}
	if dst.Arity != src.Arity || !sameTypes(dst, src) {
		c.addf(node, RuleCountShape, "%s %s and %s have mismatched signatures (arity %d vs %d)", what, src.Name, dst.Name, src.Arity, dst.Arity)
	}
}

// delFamily reports whether kind belongs to the overdeletion scratch space.
// deleteTarget is the static side of the interpreter's generation-time
// refusal: the union-find behind an eqrel has no per-pair removal, so no
// statement may take tuples out of one.
func (c *checker) deleteTarget(node any, rel *ram.Relation, what string) {
	if rel.Rep == ram.RepEqRel {
		c.addf(node, RuleDeleteTarget, "%s removes tuples from %s, an eqrel relation, which cannot delete", what, rel.Name)
	}
}

func delFamily(k ram.AuxKind) bool {
	return k == ram.AuxDel || k == ram.AuxDelDelta || k == ram.AuxDelNew
}

// redFamily reports whether kind belongs to the rederivation scratch space.
func redFamily(k ram.AuxKind) bool {
	return k == ram.AuxRed || k == ram.AuxRedDelta || k == ram.AuxRedNew
}

// deleteWrite enforces the two write rules of the delete program on one
// written relation: writes stay inside the delete scratch space (count
// buffers and the del/red families — the physical relations only shrink,
// via the exempt SUBTRACT statements), and once a base relation's
// rederivation scratch has been written, its del family is frozen
// (overdelete-before-rederive: rederivation reads del_R as the exact
// overdeleted set, so growing it afterwards would unsoundly skip tuples).
func (c *checker) deleteWrite(node any, rel *ram.Relation, what string) {
	if !rel.Aux || !(rel.Kind == ram.AuxCount || delFamily(rel.Kind) || redFamily(rel.Kind)) {
		c.addf(node, RuleDeleteWrite, "delete %s writes %s (kind %s), want a count buffer or del/red tracker", what, rel.Name, rel.Kind)
		return
	}
	if redFamily(rel.Kind) {
		c.redTouched[rel.BaseID] = true
	}
	if delFamily(rel.Kind) && c.redTouched[rel.BaseID] {
		c.addf(node, RuleDeleteOrder, "delete %s writes %s after the rederivation of its base has begun", what, rel.Name)
	}
}

// deleteQuery enforces the delete-program invariants on one query: every
// insert target is delete scratch (the physical relations must keep
// presenting the old state until the final SUBTRACT pass) and respects the
// overdelete-before-rederive ordering of its base relation.
func (c *checker) deleteQuery(q *ram.Query) {
	_, writes := analysis.QueryEffects(q)
	for rel := range writes {
		if rel == nil {
			continue
		}
		c.deleteWrite(q, rel, fmt.Sprintf("query %q", q.Label))
	}
}

func (c *checker) nested(parent any, o ram.Operation, q *ram.Query, sc scope) {
	if o == nil {
		c.addf(parent, RuleNilNode, "operation has a nil nested operation")
		return
	}
	c.op(o, q, sc)
}

// search checks an index lookup: the pattern spans the relation's arity,
// pattern expressions are well-formed in the *enclosing* scope (they may
// not read the tuple being bound), IndexID selects a declared order, and
// the bound positions are exactly a prefix of that order. allowFullScan
// admits IndexID -1 with an all-unbound pattern (Aggregate's full scan).
func (c *checker) search(node any, rel *ram.Relation, indexID int, pattern []ram.Expr, sc scope, what string, allowFullScan bool) {
	if len(pattern) != rel.Arity {
		c.addf(node, RulePatternArity, "%s pattern on %s has %d position(s), relation has arity %d", what, rel.Name, len(pattern), rel.Arity)
		return
	}
	var bound []int
	for i, e := range pattern {
		if e == nil {
			continue
		}
		bound = append(bound, i)
		c.expr(e, sc)
	}
	if indexID == -1 && allowFullScan {
		if len(bound) > 0 {
			c.addf(node, RuleIndexID, "%s on %s binds positions %v but requests a full scan (IndexID -1)", what, rel.Name, bound)
		}
		return
	}
	orders := rel.Orders
	if indexID < 0 || indexID >= max(len(orders), 1) {
		c.addf(node, RuleIndexID, "%s on %s uses index %d, relation declares %d order(s)", what, rel.Name, indexID, len(orders))
		return
	}
	// Relations without explicit orders default to one identity order in
	// every backend; the prefix of the identity order is 0..k-1.
	order := identityIfEmpty(orders, indexID, rel.Arity)
	if !isPermutation(order, rel.Arity) {
		return // already reported as rel-order
	}
	prefix := map[int]bool{}
	for _, p := range order[:len(bound)] {
		prefix[p] = true
	}
	for _, b := range bound {
		if !prefix[b] {
			c.addf(node, RuleIndexPrefix, "%s on %s binds positions %v, not a prefix of order %v (index %d)", what, rel.Name, bound, order, indexID)
			return
		}
	}
}

func identityIfEmpty(orders []tuple.Order, indexID, arity int) tuple.Order {
	if len(orders) == 0 {
		return tuple.Identity(arity)
	}
	return orders[indexID]
}

// --- conditions ---

func (c *checker) cond(cond ram.Condition, sc scope) {
	switch cond := cond.(type) {
	case *ram.And:
		if cond.L == nil || cond.R == nil {
			c.addf(cond, RuleNilNode, "AND with a nil operand")
			return
		}
		c.cond(cond.L, sc)
		c.cond(cond.R, sc)
	case *ram.Not:
		if cond.C == nil {
			c.addf(cond, RuleNilNode, "NOT with a nil operand")
			return
		}
		c.cond(cond.C, sc)
	case *ram.EmptinessCheck:
		if c.p != nil {
			c.relDeclared(cond, cond.Rel, "emptiness check")
		}
	case *ram.ExistenceCheck:
		if c.p != nil {
			if !c.relDeclared(cond, cond.Rel, "existence check") {
				return
			}
			c.search(cond, cond.Rel, cond.IndexID, cond.Pattern, sc, "existence check", false)
		} else {
			for _, e := range cond.Pattern {
				if e != nil {
					c.expr(e, sc)
				}
			}
		}
	case *ram.Constraint:
		if cond.L == nil || cond.R == nil {
			c.addf(cond, RuleNilNode, "constraint with a nil operand")
			return
		}
		c.expr(cond.L, sc)
		c.expr(cond.R, sc)
	default:
		c.addf(cond, RuleProgram, "unknown condition type %T", cond)
	}
}

// --- expressions ---

// intrinsicArgs gives the expected argument count per functor; -1 means
// variadic with at least one argument.
var intrinsicArgs = map[ram.IntrinsicOp]int{
	ram.OpAdd: 2, ram.OpSub: 2, ram.OpMul: 2, ram.OpDiv: 2, ram.OpMod: 2,
	ram.OpPow: 2, ram.OpBAnd: 2, ram.OpBOr: 2, ram.OpBXor: 2,
	ram.OpBShl: 2, ram.OpBShr: 2, ram.OpLAnd: 2, ram.OpLOr: 2,
	ram.OpNeg: 1, ram.OpBNot: 1, ram.OpLNot: 1,
	ram.OpMin: -1, ram.OpMax: -1, ram.OpCat: -1,
	ram.OpStrlen: 1, ram.OpSubstr: 3, ram.OpOrd: 1,
	ram.OpToNumber: 1, ram.OpToString: 1,
}

func (c *checker) expr(e ram.Expr, sc scope) {
	switch e := e.(type) {
	case *ram.Constant:
		// always well-formed
	case *ram.TupleElement:
		// Slot-range violations are reported at the binder; a bound read
		// only needs the element bound checked here.
		b, bound := sc[e.TupleID]
		if !bound {
			if !c.partialScope {
				c.addf(e, RuleTupleUnbound, "t%d.%d reads tuple slot t%d, which no enclosing operation binds", e.TupleID, e.Elem, e.TupleID)
			}
			return
		}
		if e.Elem < 0 || e.Elem >= b.arity {
			name := "tuple"
			if b.rel != nil {
				name = b.rel.Name
			}
			c.addf(e, RuleElemBounds, "t%d.%d reads element %d of %s, which has arity %d", e.TupleID, e.Elem, e.Elem, name, b.arity)
		}
	case *ram.Intrinsic:
		want, known := intrinsicArgs[e.Op]
		switch {
		case !known:
			c.addf(e, RuleIntrinsicArgs, "unknown intrinsic op %d", e.Op)
		case want == -1 && len(e.Args) < 1:
			c.addf(e, RuleIntrinsicArgs, "%s takes at least 1 argument, got %d", e.Op, len(e.Args))
		case want != -1 && len(e.Args) != want:
			c.addf(e, RuleIntrinsicArgs, "%s takes %d argument(s), got %d", e.Op, want, len(e.Args))
		}
		for i, a := range e.Args {
			if a == nil {
				c.addf(e, RuleNilNode, "%s has a nil argument at position %d", e.Op, i)
				continue
			}
			c.expr(a, sc)
		}
	default:
		c.addf(e, RuleProgram, "unknown expression type %T", e)
	}
}
