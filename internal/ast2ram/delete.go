package ast2ram

import (
	"fmt"
	"slices"

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
// deleted premise, unless a one-step exit rule still proves the tuple),
// then a second fixpoint rederives survivors — tuples in
// del_R that still have a derivation from surviving premises, or that a
// program-text fact asserts — into red_R, and del_R := del_R - red_R makes
// the set exact. Both are the package's one fixpoint builder, over the
// (del, ddel, ndel) and (red, dred, nred) triples. A non-recursive stratum
// reads only lower strata, whose del sets are already exact, so each of its
// fixpoints is the first round alone.
//
// The variants rely on translateRule's version fields: subst redirects body
// atoms to del/ddel/dred trackers (which drive the join), exclude and
// excludeUnless express "premise survives", and restrict limits
// rederivation to overdeleted heads.

func (t *translator) translateStratumDelete(s *sema.Stratum) (ram.Statement, error) {
	rules, inStratum := stratumRules(s)
	if len(rules) == 0 {
		return nil, nil // pure EDB stratum: retractions arrive via del_R
	}
	del, ddel, ndel := t.aux[ram.AuxDel], t.aux[ram.AuxDelDelta], t.aux[ram.AuxDelNew]
	red, dred, nred := t.aux[ram.AuxRed], t.aux[ram.AuxRedDelta], t.aux[ram.AuxRedNew]
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

	exits := t.exitRules(rules, inStratum)

	var stmts []ram.Statement

	// Phase 1: overdeletion fixpoint. A head tuple is threatened as soon as
	// some derivation of it touches a deleted premise, unless one of its
	// head's exit rules still derives it (version.survive): that proof reads
	// only a lower stratum, whose del set is already exact, so the tuple
	// provably survives and nothing is overdeleted through it. Everything
	// else stays overapproximated, which is what keeps the fixpoint
	// monotone (set semantics).
	// Like every parallel query, variants write a relation they never read:
	// the first round and the loop both target ndel_H (guarded by the del_H
	// accumulator), and folding moves ndel into del and the ddel frontier.
	for _, ru := range rules {
		h := ru.rel.Name()
		for _, i := range positivePositions(ru.clause) {
			name := atomName(ru.clause, i)
			if inStratum[name] {
				continue // in-stratum premises are handled by the loop below
			}
			v := version{target: ndel[h], guard: del[h], subst: map[int]*ram.Relation{i: del[name]}, survive: exits[h]}
			if err := t.emit(&stmts, ru.clause, v); err != nil {
				return nil, err
			}
		}
	}
	over := loopRels(s, del, ddel, ndel, nil)
	stmts = append(stmts, fold(over)...)
	var overBody []ram.Statement
	for _, ru := range rules {
		h := ru.rel.Name()
		for _, i := range positivePositions(ru.clause) {
			name := atomName(ru.clause, i)
			if !inStratum[name] {
				continue
			}
			v := version{target: ndel[h], guard: del[h], subst: map[int]*ram.Relation{i: ddel[name]}, survive: exits[h]}
			if err := t.emit(&overBody, ru.clause, v); err != nil {
				return nil, err
			}
		}
	}
	// A non-recursive stratum has no in-stratum premise, so its loop body
	// would be empty: the round above is the whole fixpoint (here and in
	// phase 2).
	if s.Recursive {
		stmts = append(stmts, t.fixpoint(fmt.Sprintf("overdelete stratum %d", s.Index), overBody, over))
	}

	// Phase 2: rederivation fixpoint. A tuple of del_H survives if some
	// derivation of it uses only surviving premises: out-of-stratum ∉del
	// (exact by stratum order), in-stratum ∉del or already rederived. The
	// head is restricted to the overdeleted set del_H. An exit rule has no
	// first-round variant: every tuple of del_H already failed its survival
	// test, so the variant could never fire.
	for _, ru := range rules {
		h := ru.rel.Name()
		if slices.ContainsFunc(exits[h], func(s survival) bool { return s.clause == ru.clause }) {
			continue
		}
		v := version{target: nred[h], guard: red[h], restrict: del[h], exclude: map[int]*ram.Relation{}}
		for _, i := range positivePositions(ru.clause) {
			v.exclude[i] = del[atomName(ru.clause, i)]
		}
		if err := t.emit(&stmts, ru.clause, v); err != nil {
			return nil, err
		}
	}
	// Fact clauses of the stratum also rederive: an overdeleted tuple that
	// is asserted as a fact always survives.
	for _, r := range s.Rels {
		h := r.Name()
		for _, c := range r.Clauses {
			if !c.IsFact() {
				continue
			}
			if err := t.emit(&stmts, c, version{target: nred[h], guard: red[h], restrict: del[h]}); err != nil {
				return nil, err
			}
		}
	}
	rederive := loopRels(s, red, dred, nred, nil)
	stmts = append(stmts, fold(rederive)...)
	var redBody []ram.Statement
	for _, ru := range rules {
		h := ru.rel.Name()
		pos := positivePositions(ru.clause)
		for _, i := range pos {
			name := atomName(ru.clause, i)
			if !inStratum[name] {
				continue
			}
			v := version{
				target:        nred[h],
				guard:         red[h],
				restrict:      del[h],
				subst:         map[int]*ram.Relation{i: dred[name]},
				exclude:       map[int]*ram.Relation{},
				excludeUnless: map[int]*ram.Relation{},
			}
			for _, j := range pos {
				if j == i {
					continue // the frontier premise is rederived by construction
				}
				jn := atomName(ru.clause, j)
				v.exclude[j] = del[jn]
				if inStratum[jn] {
					v.excludeUnless[j] = red[jn]
				}
			}
			if err := t.emit(&redBody, ru.clause, v); err != nil {
				return nil, err
			}
		}
	}
	if s.Recursive {
		stmts = append(stmts, t.fixpoint(fmt.Sprintf("rederive stratum %d", s.Index), redBody, rederive))
	}

	// The overdeleted-but-rederived tuples survive: del_R becomes exact.
	for _, r := range s.Rels {
		stmts = append(stmts, &ram.Subtract{Dst: del[r.Name()], Src: red[r.Name()]})
	}
	for _, r := range s.Rels {
		for _, m := range []map[string]*ram.Relation{ddel, ndel, red, dred, nred} {
			stmts = append(stmts, &ram.Clear{Rel: m[r.Name()]})
		}
	}
	return &ram.Sequence{Stmts: stmts}, nil
}

// survival is the test that a head tuple still has its exit rule's
// derivation: the tuple, read through key, is a tuple of rel not in del.
type survival struct {
	clause   *ast.Clause // the exit rule
	rel, del *ram.Relation
	key      []int // key[k] is the head position holding the atom's k-th argument
}

// exitRules finds, per head, the rules whose one proof step reads only an
// exact lower stratum: a body of exactly one positive out-of-stratum atom
// whose arguments are variables of a head made of distinct variables, so a
// head tuple determines the atom's whole tuple.
func (t *translator) exitRules(rules []rule, inStratum map[string]bool) map[string][]survival {
	exits := map[string][]survival{}
	for _, ru := range rules {
		c := ru.clause
		if len(c.Body) != 1 {
			continue
		}
		at, ok := c.Body[0].(*ast.Atom)
		if !ok || inStratum[at.Name] {
			continue
		}
		headPos := map[string]int{}
		for j, e := range c.Head.Args {
			if v, ok := e.(*ast.Var); ok {
				headPos[v.Name] = j
			}
		}
		if len(headPos) != len(c.Head.Args) {
			continue // a non-variable or repeated head argument
		}
		key := make([]int, len(at.Args))
		for k, e := range at.Args {
			name := ""
			if v, ok := e.(*ast.Var); ok {
				name = v.Name
			}
			j, inHead := headPos[name]
			if !inHead {
				key = nil // a wildcard, constant or non-head variable
				break
			}
			key[k] = j
		}
		if key != nil {
			h := ru.rel.Name()
			exits[h] = append(exits[h], survival{clause: c, rel: t.rels[at.Name], del: t.aux[ram.AuxDel][at.Name], key: key})
		}
	}
	return exits
}
