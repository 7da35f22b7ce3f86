// Package ast2ram translates an analyzed Datalog program into a RAM program
// (paper §2, Fig 1): facts become insertions, rules become nested-loop query
// trees, and recursive strata become semi-naive fixpoint loops with the
// structure of the paper's Fig 3.
//
// One translation emits three entry points: Main evaluates from scratch,
// Update (update.go) restarts every stratum from freshly inserted facts, and
// Delete (delete.go) retracts by DRed. They share three pieces:
//
//   - One aux table (translator.aux), keyed by ram.AuxKind and source
//     relation name, holds every companion relation: delta/new, the
//     recent_R freshness trackers and the DRed scratch families. declareAux
//     is the one place that creates them, named @<kind>_<R> in RAM text
//     (@delta_path, @new_path): the lexer never starts an identifier with
//     @, so no user relation can share an aux relation's name.
//   - One fixpoint builder (fixpoint) emits every LOOP — Main's and
//     Update's semi-naive loops and Delete's overdelete and rederive loops —
//     from an (accumulator, delta, new) triple per stratum relation: run the
//     variants, EXIT once every new set is empty, fold new into the
//     accumulator (and an extra tracker), rotate it into delta.
//   - One rule translator (translateRule, rule.go) emits every variant from
//     a version. Its subst map redirects body atoms to aux relations, and
//     one rule picks the atom that drives the join: delta atoms keep the
//     written order (the paper's semi-naive shape), any other substituted
//     tracker (recent, del, ddel, dred) holds a batch-sized change set and
//     is rotated to the outermost level.
//
// The translator writes no index orders or IndexIDs. Its last step is
// automatic index selection over the finished program (indexselect.Assign),
// so that every primitive search in the emitted RAM program is a prefix
// search on some index of its relation.
package ast2ram

import (
	"fmt"
	"strings"

	"sti/internal/ast"
	"sti/internal/indexselect"
	"sti/internal/ram"
	"sti/internal/ram/analysis"
	"sti/internal/ram/verify"
	"sti/internal/sema"
	"sti/internal/symtab"
)

// Error is a translation error (analysis accepted the program but the
// backend cannot express it).
type Error struct {
	Msg string
	Pos ast.Pos
}

func (e *Error) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Pos.Line, e.Pos.Col, e.Msg)
}

// Translate converts an analyzed program into RAM. String literals are
// interned into st.
func Translate(p *sema.Program, st *symtab.Table) (*ram.Program, error) {
	t := &translator{
		sem:  p,
		st:   st,
		rels: map[string]*ram.Relation{},
		aux:  map[ram.AuxKind]map[string]*ram.Relation{},
	}
	if err := t.run(); err != nil {
		return nil, err
	}
	// In ramverify debug mode the translator checks its own output, so a
	// translation bug surfaces here instead of as a wrong fixpoint.
	if verify.Debugging() {
		if err := verify.Check(t.out, "ast2ram"); err != nil {
			return nil, err
		}
	}
	return t.out, nil
}

type translator struct {
	sem *sema.Program
	st  *symtab.Table
	out *ram.Program

	rels map[string]*ram.Relation // source relations by name
	// aux holds the companion relations by role, then by source name:
	// delta/new for relations of recursive strata (eqrel: new only), recent
	// for every non-eqrel relation of an insert-monotone program, del for
	// every relation of a deletable one, and the other DRed families for
	// relations some proper rule derives.
	aux map[ram.AuxKind]map[string]*ram.Relation

	ruleID   int
	monotone bool // insert-monotone: no negation, no aggregates
}

func (t *translator) run() error {
	t.out = &ram.Program{}

	// Declare source relations.
	for _, r := range t.sem.RelList {
		rel := &ram.Relation{
			ID:        len(t.out.Relations),
			Name:      r.Name(),
			Arity:     r.Arity(),
			Types:     r.Decl.AttrTypes(),
			Rep:       repOf(r.Decl.Rep),
			Input:     r.Input,
			Output:    r.Output,
			PrintSize: r.PrintSize,
			Stratum:   r.Stratum,
		}
		rel.BaseID = rel.ID
		t.out.Relations = append(t.out.Relations, rel)
		t.rels[rel.Name] = rel
	}
	// Declare delta/new for relations in recursive strata (except eqrel,
	// which is evaluated naively within its stratum; see deltaVariants).
	for _, s := range t.sem.Strata {
		if !s.Recursive {
			continue
		}
		for _, r := range s.Rels {
			base := t.rels[r.Name()]
			if base.Rep != ram.RepEqRel {
				t.declareAux(ram.AuxDelta, base)
			}
			t.declareAux(ram.AuxNew, base)
		}
	}
	// Declare recent_R freshness trackers for the update program. Every
	// non-eqrel source relation gets one: it holds the tuples that became
	// true since the last Apply batch, so later strata can restart from
	// them. EqRel relations are excluded — their union-find representation
	// implies pairs that no per-tuple tracker can observe, so update rules
	// reading an out-of-stratum eqrel atom re-read the full relation.
	mono := analysis.Monotone(t.sem)
	t.monotone = mono.Monotone()
	t.out.NoUpdateReason = mono.Reason()
	if t.monotone {
		for _, r := range t.sem.RelList {
			if base := t.rels[r.Name()]; base.Rep != ram.RepEqRel {
				t.declareAux(ram.AuxRecent, base)
			}
		}
	}
	// Delete-program scratch space. Every source relation gets del_R (the
	// set scheduled for physical removal); relations some proper rule
	// derives also get the DRed overdelete/rederive families.
	deletable, delReason := analysis.Deletable(t.sem)
	t.out.NoDeleteReason = delReason
	if deletable {
		for _, r := range t.sem.RelList {
			base := t.rels[r.Name()]
			t.declareAux(ram.AuxDel, base)
			if r.HasProperRule() {
				for _, k := range []ram.AuxKind{ram.AuxDelDelta, ram.AuxDelNew, ram.AuxRed, ram.AuxRedDelta, ram.AuxRedNew} {
					t.declareAux(k, base)
				}
			}
		}
	}

	var main []ram.Statement
	// Load inputs.
	for _, rel := range t.out.Relations {
		if rel.Input {
			main = append(main, &ram.IO{Kind: ram.IOLoad, Rel: rel})
		}
	}
	// Facts.
	for _, r := range t.sem.RelList {
		for _, c := range r.Clauses {
			if !c.IsFact() {
				continue
			}
			q, err := t.translateFact(c)
			if err != nil {
				return err
			}
			main = append(main, q)
		}
	}
	// Strata in dependency order.
	for _, s := range t.sem.Strata {
		stmt, err := t.translateStratum(s)
		if err != nil {
			return err
		}
		if stmt != nil {
			main = append(main, stmt)
		}
	}
	// Outputs.
	for _, rel := range t.out.Relations {
		if rel.Output {
			main = append(main, &ram.IO{Kind: ram.IOStore, Rel: rel})
		}
		if rel.PrintSize {
			main = append(main, &ram.IO{Kind: ram.IOPrintSize, Rel: rel})
		}
	}
	t.out.Main = &ram.Sequence{Stmts: main}

	// Update program: a delta-restart variant of every stratum, entered by
	// resident engines after fresh facts were staged into recent_R.
	if t.monotone {
		var upd []ram.Statement
		for _, s := range t.sem.Strata {
			stmt, err := t.translateStratumUpdate(s)
			if err != nil {
				return err
			}
			if stmt != nil {
				upd = append(upd, stmt)
			}
		}
		// Drain every freshness tracker so the next Apply starts clean.
		for _, r := range t.sem.RelList {
			if rc := t.aux[ram.AuxRecent][r.Name()]; rc != nil {
				upd = append(upd, &ram.Clear{Rel: rc})
			}
		}
		t.out.Update = &ram.Sequence{Stmts: upd}
	}

	// Delete program: DRed per stratum, then one global physical-removal
	// pass once no stratum needs the old state.
	if deletable {
		var del []ram.Statement
		for _, s := range t.sem.Strata {
			stmt, err := t.translateStratumDelete(s)
			if err != nil {
				return err
			}
			if stmt != nil {
				del = append(del, stmt)
			}
		}
		for _, r := range t.sem.RelList {
			d := t.aux[ram.AuxDel][r.Name()]
			del = append(del, &ram.Subtract{Dst: t.rels[r.Name()], Src: d})
			del = append(del, &ram.Clear{Rel: d})
		}
		t.out.Delete = &ram.Sequence{Stmts: del}
	}
	t.out.NumRules = t.ruleID

	analysis.StampShardKeys(t.out)
	indexselect.Assign(t.out)
	return nil
}

// declareAux declares base's companion relation of the given role as
// @<kind>_<base> and records it in the aux table. Aux relations of eqrel
// sources are plain B-trees of explicit pairs.
func (t *translator) declareAux(kind ram.AuxKind, base *ram.Relation) {
	rep := base.Rep
	if rep == ram.RepEqRel {
		rep = ram.RepBTree
	}
	rel := &ram.Relation{
		ID:      len(t.out.Relations),
		Name:    "@" + kind.String() + "_" + base.Name,
		Arity:   base.Arity,
		Types:   base.Types,
		Rep:     rep,
		Kind:    kind,
		BaseID:  base.ID,
		Stratum: base.Stratum,
	}
	t.out.Relations = append(t.out.Relations, rel)
	if t.aux[kind] == nil {
		t.aux[kind] = map[string]*ram.Relation{}
	}
	t.aux[kind][base.Name] = rel
}

func repOf(r ast.Rep) ram.RepKind {
	switch r {
	case ast.RepBrie:
		return ram.RepBrie
	case ast.RepEqRel:
		return ram.RepEqRel
	default:
		return ram.RepBTree
	}
}

// --- strata ---

// rule is one non-fact clause and the relation it defines.
type rule struct {
	rel    *sema.Rel
	clause *ast.Clause
}

// stratumRules returns the rules (non-fact clauses) of stratum s and the
// names of its relations.
func stratumRules(s *sema.Stratum) ([]rule, map[string]bool) {
	var rules []rule
	inStratum := map[string]bool{}
	for _, r := range s.Rels {
		inStratum[r.Name()] = true
		for _, c := range r.Clauses {
			if !c.IsFact() {
				rules = append(rules, rule{r, c})
			}
		}
	}
	return rules, inStratum
}

// deltaVariants expands a rule of a recursive stratum into its semi-naive
// loop variants, which derive into new_H guarded by ¬H: one per in-stratum
// body atom, reading delta_X at that atom and the full relations elsewhere.
// An in-stratum eqrel relation has no delta (its union-find implies pairs
// no round inserted), so a rule recursive only through eqrel atoms reruns
// in full every round. A rule that reads nothing of its stratum has no
// loop variant.
func (t *translator) deltaVariants(ru rule, inStratum map[string]bool) ([]ram.Statement, error) {
	head := ru.rel.Name()
	naive := version{target: t.aux[ram.AuxNew][head], guard: t.rels[head]}
	var vs []version
	recursive := false
	for i, l := range ru.clause.Body {
		at, ok := l.(*ast.Atom)
		if !ok || !inStratum[at.Name] {
			continue
		}
		recursive = true
		if d := t.aux[ram.AuxDelta][at.Name]; d != nil {
			v := naive
			v.subst = map[int]*ram.Relation{i: d}
			vs = append(vs, v)
		}
	}
	if recursive && len(vs) == 0 {
		vs = []version{naive}
	}
	var qs []ram.Statement
	err := t.emit(&qs, ru.clause, vs...)
	return qs, err
}

// emit appends one query per version of c to *dst, in order.
func (t *translator) emit(dst *[]ram.Statement, c *ast.Clause, vs ...version) error {
	for _, v := range vs {
		q, err := t.translateRule(c, v)
		if err != nil {
			return err
		}
		*dst = append(*dst, q)
	}
	return nil
}

// loopRel is one stratum relation's part in a semi-naive fixpoint. Every
// round derives into new; acc accumulates all rounds, delta receives each
// round as the next round's frontier (nil when the variants read the
// relation in full), and extra, when set, also accumulates every round.
type loopRel struct{ acc, delta, new, extra *ram.Relation }

// loopRels assigns every relation of s its fixpoint roles from the given
// tables (a nil table leaves that role unset).
func loopRels(s *sema.Stratum, acc, delta, niu, extra map[string]*ram.Relation) []loopRel {
	lrs := make([]loopRel, len(s.Rels))
	for i, r := range s.Rels {
		n := r.Name()
		lrs[i] = loopRel{acc: acc[n], delta: delta[n], new: niu[n], extra: extra[n]}
	}
	return lrs
}

// fold moves one round's derivations out of every new set: into acc (and
// extra), then into delta as the next frontier.
func fold(lrs []loopRel) []ram.Statement {
	var stmts []ram.Statement
	for _, lr := range lrs {
		stmts = append(stmts, &ram.Merge{Dst: lr.acc, Src: lr.new})
		if lr.extra != nil {
			stmts = append(stmts, &ram.Merge{Dst: lr.extra, Src: lr.new})
		}
		if lr.delta != nil {
			stmts = append(stmts, &ram.Swap{A: lr.delta, B: lr.new})
		}
		stmts = append(stmts, &ram.Clear{Rel: lr.new})
	}
	return stmts
}

// fixpoint is the one semi-naive loop (paper Fig 3): run body, EXIT once
// every new set is empty, otherwise fold and repeat. The label gets the
// stratum's relation names appended.
func (t *translator) fixpoint(label string, body []ram.Statement, lrs []loopRel) ram.Statement {
	var exit ram.Condition
	names := make([]string, len(lrs))
	for i, lr := range lrs {
		var c ram.Condition = &ram.EmptinessCheck{Rel: lr.new}
		if exit == nil {
			exit = c
		} else {
			exit = &ram.And{L: exit, R: c}
		}
		names[i] = t.out.Relations[lr.new.BaseID].Name
	}
	body = append(body, &ram.Exit{Cond: exit})
	body = append(body, fold(lrs)...)
	label = fmt.Sprintf("%s (%s)", label, strings.Join(names, ", "))
	return &ram.Loop{Body: &ram.Sequence{Stmts: body}, Label: label}
}

// clearScratch releases a finished fixpoint's delta and new sets.
func clearScratch(lrs []loopRel) []ram.Statement {
	var stmts []ram.Statement
	for _, lr := range lrs {
		if lr.delta != nil {
			stmts = append(stmts, &ram.Clear{Rel: lr.delta})
		}
		stmts = append(stmts, &ram.Clear{Rel: lr.new})
	}
	return stmts
}

func (t *translator) translateStratum(s *sema.Stratum) (ram.Statement, error) {
	rules, inStratum := stratumRules(s)
	if len(rules) == 0 {
		return nil, nil
	}
	// A rule that reads nothing of its stratum (every rule of a
	// non-recursive one) is evaluated once; the others run in the loop.
	var init, body []ram.Statement
	for _, ru := range rules {
		qs, err := t.deltaVariants(ru, inStratum)
		if err != nil {
			return nil, err
		}
		if len(qs) == 0 {
			if err := t.emit(&init, ru.clause, version{target: t.rels[ru.rel.Name()]}); err != nil {
				return nil, err
			}
		}
		body = append(body, qs...)
	}
	if !s.Recursive {
		return &ram.Sequence{Stmts: init}, nil
	}

	// Recursive stratum: semi-naive evaluation (paper Fig 3), with the
	// deltas seeded from the full relations.
	lrs := loopRels(s, t.rels, t.aux[ram.AuxDelta], t.aux[ram.AuxNew], nil)
	stmts := init
	for _, lr := range lrs {
		if lr.delta != nil {
			stmts = append(stmts, &ram.Merge{Dst: lr.delta, Src: lr.acc})
		}
	}
	stmts = append(stmts, t.fixpoint(fmt.Sprintf("stratum %d", s.Index), body, lrs))
	return &ram.Sequence{Stmts: append(stmts, clearScratch(lrs)...)}, nil
}

// version describes which variant of a rule to emit.
type version struct {
	target *ram.Relation // relation receiving the head projection
	guard  *ram.Relation // if set, suppress heads already in this relation
	// subst redirects body positions to aux relations (delta, recent, del,
	// ddel or dred trackers).
	subst map[int]*ram.Relation
	// exclude filters out atom tuples present in the given relation, and
	// excludeUnless weakens that to ¬(∈exclude ∧ ¬∈unless) — the DRed
	// "deleted but not rederived" survival test. A non-nil exclude also
	// disables the existence-check collapse so each variable assignment is
	// enumerated: the filters need the atom's tuple slot.
	exclude       map[int]*ram.Relation
	excludeUnless map[int]*ram.Relation
	// restrict keeps only heads present in the given relation: by scanning
	// it as an extra outermost level binding the head variables when every
	// head argument is a plain variable, by a ∈restrict filter otherwise.
	restrict *ram.Relation
}

// --- facts ---

func (t *translator) translateFact(c *ast.Clause) (ram.Statement, error) {
	target := t.rels[c.Head.Name]
	exprs := make([]ram.Expr, len(c.Head.Args))
	info := t.sem.Clauses[c]
	tr := &ruleTranslator{t: t, info: info, env: map[string]ram.Expr{}}
	for i, e := range c.Head.Args {
		re, err := tr.expr(e)
		if err != nil {
			return nil, err
		}
		exprs[i] = re
	}
	t.ruleID++
	return &ram.Query{
		Root:   &ram.Project{Rel: target, Exprs: exprs},
		RuleID: t.ruleID - 1,
		Label:  c.String(),
	}, nil
}
