package ast2ram

import (
	"fmt"
	"strings"

	"sti/internal/ast"
	"sti/internal/ram"
	"sti/internal/sema"
)

// Delete-program emission: incremental retraction without the full-recompute
// fallback. The caller (db.Apply via the resident engine) stages retracted
// EDB facts into the del_E trackers and runs Program.Delete.
//
// The program has one section per stratum, in dependency order, and every
// section computes its stratum's *exact* set of dying tuples into del_R
// while leaving the physical relations untouched — all reads anywhere in the
// delete program therefore observe the old, pre-delete state. Only after the
// last stratum does a global subtract pass remove del_R from each relation.
//
// Every stratum uses DRed (delete and rederive): first a fixpoint
// overapproximates the dying set into del_R (any derivation touching a
// deleted premise), then a second fixpoint rederives survivors — tuples in
// del_R that still have a derivation from surviving premises, or that a
// program-text fact asserts — into red_R, and del_R := del_R - red_R makes
// the set exact. A non-recursive stratum reads only lower strata, whose
// del sets are already exact, so each of its fixpoints is one round.
//
// The variants rely on translateRule's delete-variant extensions: subst
// redirects body atoms to del/ddel/dred trackers, exclude/excludeUnless
// express "premise survives", require/headScan restrict rederivation to
// overdeleted heads, and forceScan keeps derivations enumerable per-tuple.

func (t *translator) translateStratumDelete(s *sema.Stratum) (ram.Statement, error) {
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
		return nil, nil // pure EDB stratum: retractions arrive via del_R
	}

	inStratum := map[string]bool{}
	for _, r := range s.Rels {
		inStratum[r.Name()] = true
	}
	// positivePositions lists the body indices holding positive atoms.
	positivePositions := func(c *ast.Clause) []int {
		var idxs []int
		for i, l := range c.Body {
			if _, ok := l.(*ast.Atom); ok {
				idxs = append(idxs, i)
			}
		}
		return idxs
	}
	atomName := func(c *ast.Clause, i int) string {
		return c.Body[i].(*ast.Atom).Name
	}

	var stmts []ram.Statement
	emit := func(c *ast.Clause, v version) error {
		q, err := t.translateRule(c, v)
		if err != nil {
			return err
		}
		stmts = append(stmts, q)
		return nil
	}

	// Phase 1: overdeletion fixpoint. A head tuple is threatened as soon as
	// *some* derivation of it touches a deleted premise, so the variants
	// carry no survival filters — overapproximating is what makes the
	// fixpoint monotone (set semantics, no forceScan).
	// Like every parallel query, variants write a relation they never read:
	// init and loop both target ndel_H (guarded by the del_H accumulator),
	// and the fold/rotate steps move ndel into del and the ddel frontier.
	for _, ru := range rules {
		delH := t.dels[ru.rel.Name()]
		ndelH := t.ndels[ru.rel.Name()]
		for _, i := range positivePositions(ru.clause) {
			name := atomName(ru.clause, i)
			if inStratum[name] {
				continue // in-stratum premises are handled by the loop below
			}
			v := version{
				target: ndelH,
				guard:  delH,
				subst:  map[int]*ram.Relation{i: t.dels[name]},
			}
			if err := emit(ru.clause, v); err != nil {
				return nil, err
			}
		}
	}
	for _, r := range s.Rels {
		stmts = append(stmts, &ram.Merge{Dst: t.dels[r.Name()], Src: t.ndels[r.Name()]})
		stmts = append(stmts, &ram.Swap{A: t.ddels[r.Name()], B: t.ndels[r.Name()]})
		stmts = append(stmts, &ram.Clear{Rel: t.ndels[r.Name()]})
	}
	var overBody []ram.Statement
	for _, ru := range rules {
		ndelH := t.ndels[ru.rel.Name()]
		delH := t.dels[ru.rel.Name()]
		for _, i := range positivePositions(ru.clause) {
			name := atomName(ru.clause, i)
			if !inStratum[name] {
				continue
			}
			v := version{
				target: ndelH,
				guard:  delH,
				subst:  map[int]*ram.Relation{i: t.ddels[name]},
			}
			q, err := t.translateRule(ru.clause, v)
			if err != nil {
				return nil, err
			}
			overBody = append(overBody, q)
		}
	}
	var names []string
	for _, r := range s.Rels {
		names = append(names, r.Name())
	}
	// A non-recursive stratum has no in-stratum premise, so its loop body
	// would be empty: the round above is the whole fixpoint (here and in
	// phase 2).
	if s.Recursive {
		stmts = append(stmts, t.deleteFixpoint(s, overBody, t.dels, t.ddels, t.ndels,
			fmt.Sprintf("overdelete stratum %d (%s)", s.Index, strings.Join(names, ", "))))
	}

	// Phase 2: rederivation fixpoint. A tuple of del_H survives if some
	// derivation of it uses only surviving premises: out-of-stratum ∉del
	// (exact by stratum order), in-stratum ∉del or already rederived. The
	// head is restricted to the overdeleted set — by scanning del_H as the
	// outermost level when the head is all variables, and by a ∈del_H
	// filter otherwise. forceScan keeps the atoms' tuple slots alive for
	// the membership filters.
	rederiveHead := func(c *ast.Clause, v *version, delH *ram.Relation) {
		allVars := true
		for _, e := range c.Head.Args {
			if _, ok := e.(*ast.Var); !ok {
				allVars = false
				break
			}
		}
		if allVars && len(c.Head.Args) > 0 {
			v.headScan = delH
		} else {
			v.require = delH
		}
	}
	for _, ru := range rules {
		redH := t.reds[ru.rel.Name()]
		nredH := t.nreds[ru.rel.Name()]
		delH := t.dels[ru.rel.Name()]
		v := version{
			target:    nredH,
			guard:     redH,
			forceScan: true,
			exclude:   map[int]*ram.Relation{},
		}
		for _, i := range positivePositions(ru.clause) {
			v.exclude[i] = t.dels[atomName(ru.clause, i)]
		}
		rederiveHead(ru.clause, &v, delH)
		if err := emit(ru.clause, v); err != nil {
			return nil, err
		}
	}
	// Fact clauses of the stratum also rederive: an overdeleted tuple that
	// is asserted as a fact always survives.
	for _, r := range s.Rels {
		for _, c := range r.Clauses {
			if !c.IsFact() {
				continue
			}
			v := version{
				target:  t.nreds[r.Name()],
				guard:   t.reds[r.Name()],
				require: t.dels[r.Name()],
			}
			if err := emit(c, v); err != nil {
				return nil, err
			}
		}
	}
	for _, r := range s.Rels {
		stmts = append(stmts, &ram.Merge{Dst: t.reds[r.Name()], Src: t.nreds[r.Name()]})
		stmts = append(stmts, &ram.Swap{A: t.dreds[r.Name()], B: t.nreds[r.Name()]})
		stmts = append(stmts, &ram.Clear{Rel: t.nreds[r.Name()]})
	}
	var redBody []ram.Statement
	for _, ru := range rules {
		redH := t.reds[ru.rel.Name()]
		nredH := t.nreds[ru.rel.Name()]
		delH := t.dels[ru.rel.Name()]
		pos := positivePositions(ru.clause)
		for _, i := range pos {
			name := atomName(ru.clause, i)
			if !inStratum[name] {
				continue
			}
			v := version{
				target:        nredH,
				guard:         redH,
				forceScan:     true,
				subst:         map[int]*ram.Relation{i: t.dreds[name]},
				exclude:       map[int]*ram.Relation{},
				excludeUnless: map[int]*ram.Relation{},
			}
			for _, j := range pos {
				if j == i {
					continue // the frontier premise is rederived by construction
				}
				jn := atomName(ru.clause, j)
				v.exclude[j] = t.dels[jn]
				if inStratum[jn] {
					v.excludeUnless[j] = t.reds[jn]
				}
			}
			rederiveHead(ru.clause, &v, delH)
			q, err := t.translateRule(ru.clause, v)
			if err != nil {
				return nil, err
			}
			redBody = append(redBody, q)
		}
	}
	if s.Recursive {
		stmts = append(stmts, t.deleteFixpoint(s, redBody, t.reds, t.dreds, t.nreds,
			fmt.Sprintf("rederive stratum %d (%s)", s.Index, strings.Join(names, ", "))))
	}

	// The overdeleted-but-rederived tuples survive: del_R becomes exact.
	for _, r := range s.Rels {
		stmts = append(stmts, &ram.Subtract{Dst: t.dels[r.Name()], Src: t.reds[r.Name()]})
	}
	for _, r := range s.Rels {
		for _, m := range []map[string]*ram.Relation{t.ddels, t.ndels, t.reds, t.dreds, t.nreds} {
			stmts = append(stmts, &ram.Clear{Rel: m[r.Name()]})
		}
	}
	return &ram.Sequence{Stmts: stmts}, nil
}

// deleteFixpoint assembles one semi-naive fixpoint over an accumulator/
// delta/new relation triple per stratum relation: run the variants, exit
// when every new set is empty, otherwise fold new into the accumulator and
// rotate new into delta.
func (t *translator) deleteFixpoint(s *sema.Stratum, body []ram.Statement,
	acc, delta, niu map[string]*ram.Relation, label string) ram.Statement {
	var exitCond ram.Condition
	var post []ram.Statement
	for _, r := range s.Rels {
		nw := niu[r.Name()]
		var c ram.Condition = &ram.EmptinessCheck{Rel: nw}
		if exitCond == nil {
			exitCond = c
		} else {
			exitCond = &ram.And{L: exitCond, R: c}
		}
		post = append(post, &ram.Merge{Dst: acc[r.Name()], Src: nw})
		post = append(post, &ram.Swap{A: delta[r.Name()], B: nw})
		post = append(post, &ram.Clear{Rel: nw})
	}
	body = append(body, &ram.Exit{Cond: exitCond})
	body = append(body, post...)
	return &ram.Loop{Body: &ram.Sequence{Stmts: body}, Label: label}
}
