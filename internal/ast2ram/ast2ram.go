// Package ast2ram translates an analyzed Datalog program into a RAM program
// (paper §2, Fig 1): facts become insertions, rules become nested-loop query
// trees, and recursive strata become semi-naive fixpoint loops over
// delta/new relations with the structure of the paper's Fig 3.
//
// The translation also runs automatic index selection (internal/indexselect)
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
		sem:     p,
		st:      st,
		rels:    map[string]*ram.Relation{},
		deltas:  map[string]*ram.Relation{},
		news:    map[string]*ram.Relation{},
		recents: map[string]*ram.Relation{},
		dels:    map[string]*ram.Relation{},
		ddels:   map[string]*ram.Relation{},
		ndels:   map[string]*ram.Relation{},
		reds:    map[string]*ram.Relation{},
		dreds:   map[string]*ram.Relation{},
		nreds:   map[string]*ram.Relation{},
		pending: map[*ram.Relation][]patch{},
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

// patch records a RAM node whose IndexID must be filled in after index
// selection.
type patch struct {
	sig indexselect.Signature
	set func(indexID int)
}

type translator struct {
	sem *sema.Program
	st  *symtab.Table
	out *ram.Program

	rels    map[string]*ram.Relation // source relations by name
	deltas  map[string]*ram.Relation // delta_R by source name
	news    map[string]*ram.Relation // new_R by source name
	recents map[string]*ram.Relation // recent_R by source name (update program)

	// Delete-program scratch space, by source name (delete.go). dels exists
	// for every source relation; the ddel/ndel/red/dred/nred families for
	// relations some proper rule derives.
	dels  map[string]*ram.Relation
	ddels map[string]*ram.Relation
	ndels map[string]*ram.Relation
	reds  map[string]*ram.Relation
	dreds map[string]*ram.Relation
	nreds map[string]*ram.Relation

	pending  map[*ram.Relation][]patch
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
	// which is evaluated naively within its stratum; see below).
	for _, s := range t.sem.Strata {
		if !s.Recursive {
			continue
		}
		for _, r := range s.Rels {
			base := t.rels[r.Name()]
			if base.Rep == ram.RepEqRel {
				nw := t.auxRelation("new_"+r.Name(), base, ram.AuxNew)
				t.news[r.Name()] = nw
				continue
			}
			t.deltas[r.Name()] = t.auxRelation("delta_"+r.Name(), base, ram.AuxDelta)
			t.news[r.Name()] = t.auxRelation("new_"+r.Name(), base, ram.AuxNew)
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
			base := t.rels[r.Name()]
			if base.Rep == ram.RepEqRel {
				continue
			}
			t.recents[r.Name()] = t.auxRelation("recent_"+r.Name(), base, ram.AuxRecent)
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
			t.dels[r.Name()] = t.auxRelation("del_"+r.Name(), base, ram.AuxDel)
			if r.HasProperRule() {
				t.ddels[r.Name()] = t.auxRelation("ddel_"+r.Name(), base, ram.AuxDelDelta)
				t.ndels[r.Name()] = t.auxRelation("ndel_"+r.Name(), base, ram.AuxDelNew)
				t.reds[r.Name()] = t.auxRelation("red_"+r.Name(), base, ram.AuxRed)
				t.dreds[r.Name()] = t.auxRelation("dred_"+r.Name(), base, ram.AuxRedDelta)
				t.nreds[r.Name()] = t.auxRelation("nred_"+r.Name(), base, ram.AuxRedNew)
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
			if rc := t.recents[r.Name()]; rc != nil {
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
			d := t.dels[r.Name()]
			del = append(del, &ram.Subtract{Dst: t.rels[r.Name()], Src: d})
			del = append(del, &ram.Clear{Rel: d})
		}
		t.out.Delete = &ram.Sequence{Stmts: del}
	}
	t.out.NumRules = t.ruleID

	t.selectIndexes()
	analysis.StampShardKeys(t.out)
	return nil
}

// auxRelation declares a delta/new/recent companion. Aux relations of eqrel
// sources are plain B-trees of explicit pairs.
func (t *translator) auxRelation(name string, base *ram.Relation, kind ram.AuxKind) *ram.Relation {
	rep := base.Rep
	if rep == ram.RepEqRel {
		rep = ram.RepBTree
	}
	rel := &ram.Relation{
		ID:      len(t.out.Relations),
		Name:    name,
		Arity:   base.Arity,
		Types:   base.Types,
		Rep:     rep,
		Aux:     true,
		Kind:    kind,
		BaseID:  base.ID,
		Stratum: base.Stratum,
	}
	t.out.Relations = append(t.out.Relations, rel)
	return rel
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

func (t *translator) translateStratum(s *sema.Stratum) (ram.Statement, error) {
	// Gather the rules (non-fact clauses) of this stratum.
	type rule struct {
		rel    *sema.Rel
		clause *ast.Clause
	}
	var rules []rule
	for _, r := range s.Rels {
		for _, c := range r.Clauses {
			if !c.IsFact() {
				rules = append(rules, rule{r, c})
			}
		}
	}
	if len(rules) == 0 {
		return nil, nil
	}

	inStratum := map[string]bool{}
	for _, r := range s.Rels {
		inStratum[r.Name()] = true
	}
	// recursiveAtoms lists body-atom positions referencing in-stratum,
	// non-eqrel relations (the delta candidates).
	recursiveAtoms := func(c *ast.Clause) []int {
		var idxs []int
		for i, l := range c.Body {
			if at, ok := l.(*ast.Atom); ok {
				if inStratum[at.Name] && t.rels[at.Name].Rep != ram.RepEqRel {
					idxs = append(idxs, i)
				}
			}
		}
		return idxs
	}

	if !s.Recursive {
		var stmts []ram.Statement
		for _, ru := range rules {
			q, err := t.translateRule(ru.clause, version{target: t.rels[ru.rel.Name()]})
			if err != nil {
				return nil, err
			}
			stmts = append(stmts, q)
		}
		return &ram.Sequence{Stmts: stmts}, nil
	}

	// Recursive stratum: semi-naive evaluation (paper Fig 3).
	var init []ram.Statement
	var loopBody []ram.Statement

	for _, ru := range rules {
		rec := recursiveAtoms(ru.clause)
		target := t.rels[ru.rel.Name()]
		anyInStratum := false
		for _, l := range ru.clause.Body {
			if at, ok := l.(*ast.Atom); ok && inStratum[at.Name] {
				anyInStratum = true
			}
		}
		if !anyInStratum {
			// Non-recursive rule of a recursive stratum: evaluate once.
			q, err := t.translateRule(ru.clause, version{target: target})
			if err != nil {
				return nil, err
			}
			init = append(init, q)
			continue
		}
		newRel := t.news[ru.rel.Name()]
		if len(rec) == 0 {
			// Only eqrel in-stratum atoms: evaluate naively each iteration.
			q, err := t.translateRule(ru.clause, version{
				target: newRel, guard: target, naive: true,
			})
			if err != nil {
				return nil, err
			}
			loopBody = append(loopBody, q)
			continue
		}
		for _, deltaPos := range rec {
			q, err := t.translateRule(ru.clause, version{
				target:   newRel,
				guard:    target,
				deltaPos: deltaPos,
				useDelta: true,
			})
			if err != nil {
				return nil, err
			}
			loopBody = append(loopBody, q)
		}
	}

	var stmts []ram.Statement
	stmts = append(stmts, init...)
	// Seed deltas with the full relations.
	for _, r := range s.Rels {
		if d := t.deltas[r.Name()]; d != nil {
			stmts = append(stmts, &ram.Merge{Dst: d, Src: t.rels[r.Name()]})
		}
	}
	// Fixpoint loop: derive new, exit when nothing new, fold in, rotate.
	var post []ram.Statement
	var exitCond ram.Condition
	for _, r := range s.Rels {
		nw := t.news[r.Name()]
		if nw == nil {
			continue
		}
		var c ram.Condition = &ram.EmptinessCheck{Rel: nw}
		if exitCond == nil {
			exitCond = c
		} else {
			exitCond = &ram.And{L: exitCond, R: c}
		}
		post = append(post, &ram.Merge{Dst: t.rels[r.Name()], Src: nw})
		if d := t.deltas[r.Name()]; d != nil {
			post = append(post, &ram.Swap{A: d, B: nw})
			post = append(post, &ram.Clear{Rel: nw})
		} else {
			post = append(post, &ram.Clear{Rel: nw})
		}
	}
	body := append(loopBody, &ram.Exit{Cond: exitCond})
	body = append(body, post...)
	var names []string
	for _, r := range s.Rels {
		if t.news[r.Name()] != nil {
			names = append(names, r.Name())
		}
	}
	label := fmt.Sprintf("stratum %d (%s)", s.Index, strings.Join(names, ", "))
	stmts = append(stmts, &ram.Loop{Body: &ram.Sequence{Stmts: body}, Label: label})
	// Release the scratch relations.
	for _, r := range s.Rels {
		if d := t.deltas[r.Name()]; d != nil {
			stmts = append(stmts, &ram.Clear{Rel: d})
		}
		if nw := t.news[r.Name()]; nw != nil {
			stmts = append(stmts, &ram.Clear{Rel: nw})
		}
	}
	return &ram.Sequence{Stmts: stmts}, nil
}

// version describes which variant of a rule to emit.
type version struct {
	target   *ram.Relation // relation receiving the head projection
	guard    *ram.Relation // if set, suppress heads already in this relation
	deltaPos int           // body index of the atom read from delta_R
	useDelta bool
	naive    bool // recursive via eqrel only; all in-stratum atoms read full
	// Update-program restart variants read the freshness tracker recent_X
	// at one out-of-stratum body position (and the full relations
	// everywhere else).
	recentPos int
	useRecent bool

	// Delete-program variants (delete.go). subst redirects body positions
	// to scratch relations (del/ddel/dred trackers); exclude filters out
	// atom tuples present in the given relation, and excludeUnless weakens
	// that to ¬(∈exclude ∧ ¬∈unless) — the DRed "deleted but not rederived"
	// survival test. require keeps only heads present in the given
	// relation; headScan instead *scans* that relation as an extra
	// outermost level binding the head variables (legal only when every
	// head argument is a plain variable). forceScan disables the
	// existence-check collapse so each variable assignment is enumerated:
	// exclude filters need the atom's tuple slot.
	subst         map[int]*ram.Relation
	exclude       map[int]*ram.Relation
	excludeUnless map[int]*ram.Relation
	require       *ram.Relation
	headScan      *ram.Relation
	forceScan     bool
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
