// Package compile is the engine's "synthesizer" baseline: it compiles a RAM
// program into a tree of specialized Go closures ahead of execution, the
// role the synthesized C++ code plays in the paper's evaluation (§5).
//
// Where the interpreter dispatches on an opcode at every node visit and
// reads static information through shadow pointers, the closure compiler
// resolves *everything* once at compile time: concrete B-tree instances are
// type-asserted and captured, tuple orders are baked into the capture
// environment, arithmetic is monomorphized per operator and type, and the
// per-node switch disappears entirely. Execution is then just direct
// closure calls over the same de-specialized data structures the
// interpreter uses, so interpreter-vs-compiled ratios isolate exactly the
// interpretation overheads the paper measures.
package compile

import (
	"time"

	"sti/internal/eio"
	"sti/internal/ram"
	"sti/internal/ram/verify"
	"sti/internal/relation"
	"sti/internal/rtl"
	"sti/internal/symtab"
	"sti/internal/tuple"
	"sti/internal/value"
)

// Machine is a compiled RAM program ready to run.
type Machine struct {
	prog *ram.Program
	st   *symtab.Table
	rels []*relation.Relation
	main stmtFn

	// Per-rule cumulative wall time, indexed by RuleID. Maintained
	// unconditionally: one clock pair per rule *evaluation* (not per
	// tuple), which is negligible, and it feeds the paper's per-rule
	// slowdown study (Fig 16).
	ruleTimes  []time.Duration
	ruleLabels []string
}

// RuleTime is one rule's cumulative evaluation time.
type RuleTime struct {
	RuleID int
	Label  string
	Time   time.Duration
}

// RuleTimes reports cumulative evaluation time per rule from the last Run.
func (m *Machine) RuleTimes() []RuleTime {
	var out []RuleTime
	for id, d := range m.ruleTimes {
		if d > 0 {
			out = append(out, RuleTime{RuleID: id, Label: m.ruleLabels[id], Time: d})
		}
	}
	return out
}

// rt is the runtime environment of one query (the compiled analog of the
// interpreter's context).
type rt struct {
	tuples []tuple.Tuple
	base   []tuple.Tuple
	// hints holds one finger (*btree.Hint) per full-key B-tree existence
	// site of the query, indexed by the slot the compiler gave the site.
	hints []any
}

func newRT(widths, fingers []int32) *rt {
	r := &rt{
		tuples: make([]tuple.Tuple, len(widths)),
		base:   make([]tuple.Tuple, len(widths)),
		hints:  make([]any, len(fingers)),
	}
	for i, w := range widths {
		r.tuples[i] = make(tuple.Tuple, w)
		r.base[i] = r.tuples[i]
	}
	for i, a := range fingers {
		r.hints[i] = relation.NewHint(int(a))
	}
	return r
}

// finger returns the finger in slot, or nil for slot -1 (r may then be nil).
func (r *rt) finger(slot int32) any {
	if slot < 0 {
		return nil
	}
	return r.hints[slot]
}

// bindResult binds an aggregate's result as the 1-wide tuple at tid, in the
// slot's own storage (aggregate slots are at least 1 wide).
func (r *rt) bindResult(tid int32, res value.Value) {
	slot := r.base[tid][:1]
	slot[0] = res
	r.tuples[tid] = slot
}

// state carries statement-level execution state.
type state struct {
	io   eio.Handler
	exit bool
}

type (
	stmtFn func(*state)
	opFn   func(*rt)
	exprFn func(*rt) value32
	condFn func(*rt) bool
	// boundFn evaluates a search's range bound at scan start: the storage
	// interval of the position after the prefix, ok false when empty.
	boundFn func(*rt) (lo, hi value32, ok bool)
)

// value32 keeps closure signatures short.
type value32 = uint32

// New compiles the program. Compilation builds the runtime relations and
// the closure tree; its cost corresponds to the synthesizer's code
// generation (the C++ compile time is modelled separately by
// internal/codegen).
func New(prog *ram.Program, st *symtab.Table) *Machine {
	if verify.Debugging() {
		if err := verify.Check(prog, "compile.New"); err != nil {
			panic(err)
		}
	}
	m := &Machine{
		prog:       prog,
		st:         st,
		ruleTimes:  make([]time.Duration, prog.NumRules),
		ruleLabels: make([]string, prog.NumRules),
	}
	for _, rd := range prog.Relations {
		m.rels = append(m.rels, buildRelation(rd))
	}
	c := &compiler{m: m}
	m.main = c.compileStmt(prog.Main)
	return m
}

func buildRelation(rd *ram.Relation) *relation.Relation {
	rep := relation.BTree
	switch rd.Rep {
	case ram.RepBrie:
		rep = relation.Brie
	case ram.RepEqRel:
		rep = relation.EqRel
	}
	orders := rd.Orders
	if len(orders) == 0 {
		orders = []tuple.Order{tuple.Identity(rd.Arity)}
	}
	return relation.New(rd.Name, rep, rd.Arity, orders)
}

// Run executes the compiled program.
func (m *Machine) Run(io eio.Handler) (err error) {
	if io == nil {
		io = eio.NewMem()
	}
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(*rtl.Error); ok {
				err = re
				return
			}
			panic(r)
		}
	}()
	m.main(&state{io: io})
	return nil
}

// Relation returns the runtime relation by name, or nil.
func (m *Machine) Relation(name string) *relation.Relation {
	for i, rd := range m.prog.Relations {
		if rd.Name == name {
			return m.rels[i]
		}
	}
	return nil
}

// Tuples returns all tuples of a relation in source order.
func (m *Machine) Tuples(name string) ([]tuple.Tuple, error) {
	rel := m.Relation(name)
	if rel == nil {
		return nil, &rtl.Error{Msg: "unknown relation " + name}
	}
	var out []tuple.Tuple
	it := rel.Scan()
	for {
		t, ok := it.Next()
		if !ok {
			return out, nil
		}
		out = append(out, tuple.Clone(t))
	}
}

// SymbolTable exposes the machine's symbol table.
func (m *Machine) SymbolTable() *symtab.Table { return m.st }
