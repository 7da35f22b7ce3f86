package ast2ram

import (
	"fmt"
	"strings"

	"sti/internal/ast"
	"sti/internal/ram"
	"sti/internal/sema"
)

// Update-program emission (delta-restart semi-naive evaluation).
//
// The full program evaluates each stratum from scratch. A resident engine
// instead stages fresh EDB facts into the recent_R trackers and runs
// Program.Update, which re-enters every stratum seeded only with what
// changed:
//
//   - Every rule gets one *restart* variant per out-of-stratum body atom:
//     that atom reads recent_X (the fresh tuples of a lower stratum) while
//     all other atoms read the full relations. Since insert-monotone
//     programs only ever add tuples, every new derivation has at least one
//     fresh premise, and the fresh premise is either a lower-stratum tuple
//     (covered by a restart variant) or an in-stratum tuple (covered by
//     delta seeding and the fixpoint loop below).
//   - Recursive strata then rerun the standard semi-naive LOOP with delta_R
//     seeded from recent_R and the restart output, rather than the full
//     relation.
//   - Atoms over out-of-stratum eqrel relations cannot be freshness-tracked
//     (the union-find closes pairs no insert ever mentioned), so such rules
//     fall back to a single all-full restart variant; the ¬R(head) guard
//     keeps re-derivations cheap.
//
// Every stratum section appends its newly derived tuples to recent_R so
// downstream sections restart from them; the tail of the update program
// clears all trackers. The variants have set semantics (a guard keeps
// each tuple once) in every program, deletable or not: DRed retraction
// (delete.go) needs no per-tuple bookkeeping from insertion.

func (t *translator) translateStratumUpdate(s *sema.Stratum) (ram.Statement, error) {
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
		return nil, nil // pure EDB stratum: batch facts arrive via recent_R
	}

	inStratum := map[string]bool{}
	for _, r := range s.Rels {
		inStratum[r.Name()] = true
	}

	// restartVersions expands one rule into its restart variants.
	restartVersions := func(c *ast.Clause, target, guard *ram.Relation, naive bool) []version {
		var outPos []int
		outEqrel := false
		for i, l := range c.Body {
			at, ok := l.(*ast.Atom)
			if !ok || inStratum[at.Name] {
				continue
			}
			if t.rels[at.Name].Rep == ram.RepEqRel {
				outEqrel = true
				continue
			}
			outPos = append(outPos, i)
		}
		if outEqrel || len(outPos) == 0 {
			// An untrackable premise (or a ground rule): re-derive from the
			// full relations, deduplicated by the guard.
			return []version{{target: target, guard: guard, naive: naive}}
		}
		vs := make([]version, 0, len(outPos))
		for _, i := range outPos {
			vs = append(vs, version{target: target, guard: guard, naive: naive, useRecent: true, recentPos: i})
		}
		return vs
	}

	var stmts []ram.Statement
	emit := func(c *ast.Clause, vs []version) error {
		for _, v := range vs {
			q, err := t.translateRule(c, v)
			if err != nil {
				return err
			}
			stmts = append(stmts, q)
		}
		return nil
	}

	if !s.Recursive {
		for _, ru := range rules {
			head := t.rels[ru.rel.Name()]
			rc := t.recents[ru.rel.Name()]
			var vs []version
			if rc != nil {
				vs = restartVersions(ru.clause, rc, head, false)
			} else {
				// EqRel head: project straight into the union-find (inserts
				// are idempotent and nothing downstream tracks its recents).
				vs = restartVersions(ru.clause, head, nil, false)
			}
			if err := emit(ru.clause, vs); err != nil {
				return nil, err
			}
		}
		// Fold the fresh tuples into the base relations; recent_R keeps
		// them visible to downstream sections until the final clears.
		for _, r := range s.Rels {
			if rc := t.recents[r.Name()]; rc != nil {
				stmts = append(stmts, &ram.Merge{Dst: t.rels[r.Name()], Src: rc})
			}
		}
		return &ram.Sequence{Stmts: stmts}, nil
	}

	// Recursive stratum: restart into new_R, fold into base/recent/delta,
	// then rerun the semi-naive loop seeded from the deltas only.
	for _, ru := range rules {
		target := t.rels[ru.rel.Name()]
		newRel := t.news[ru.rel.Name()]
		anyInStratum := false
		for _, l := range ru.clause.Body {
			if at, ok := l.(*ast.Atom); ok && inStratum[at.Name] {
				anyInStratum = true
			}
		}
		if !anyInStratum {
			if err := emit(ru.clause, restartVersions(ru.clause, newRel, target, false)); err != nil {
				return nil, err
			}
			continue
		}
		// A rule with in-stratum atoms still needs restart variants for its
		// out-of-stratum premises: old in-stratum ⨝ fresh lower-stratum
		// pairs never pass through any delta. In-stratum atoms read the
		// full relation here (naive), exactly like the pre-loop init rules.
		hasOut := false
		for _, l := range ru.clause.Body {
			if at, ok := l.(*ast.Atom); ok && !inStratum[at.Name] {
				hasOut = true
			}
		}
		if hasOut {
			if err := emit(ru.clause, restartVersions(ru.clause, newRel, target, true)); err != nil {
				return nil, err
			}
		}
	}
	for _, r := range s.Rels {
		nw := t.news[r.Name()]
		rc := t.recents[r.Name()]
		if nw != nil {
			stmts = append(stmts, &ram.Merge{Dst: t.rels[r.Name()], Src: nw})
			if rc != nil {
				stmts = append(stmts, &ram.Merge{Dst: rc, Src: nw})
			}
		}
		if d := t.deltas[r.Name()]; d != nil && rc != nil {
			// Seed the delta with everything fresh so far: staged batch
			// facts and the restart output, but *not* the old fixpoint.
			stmts = append(stmts, &ram.Merge{Dst: d, Src: rc})
		}
		if nw != nil {
			stmts = append(stmts, &ram.Clear{Rel: nw})
		}
	}

	// The fixpoint loop mirrors translateStratum's, with one extra rotation
	// step: new_R also merges into recent_R for downstream restarts.
	var loopBody []ram.Statement
	for _, ru := range rules {
		target := t.rels[ru.rel.Name()]
		newRel := t.news[ru.rel.Name()]
		var rec []int
		anyInStratum := false
		for i, l := range ru.clause.Body {
			if at, ok := l.(*ast.Atom); ok && inStratum[at.Name] {
				anyInStratum = true
				if t.rels[at.Name].Rep != ram.RepEqRel {
					rec = append(rec, i)
				}
			}
		}
		if !anyInStratum {
			continue
		}
		if len(rec) == 0 {
			q, err := t.translateRule(ru.clause, version{target: newRel, guard: target, naive: true})
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
	var post []ram.Statement
	var exitCond ram.Condition
	var names []string
	for _, r := range s.Rels {
		nw := t.news[r.Name()]
		if nw == nil {
			continue
		}
		names = append(names, r.Name())
		var c ram.Condition = &ram.EmptinessCheck{Rel: nw}
		if exitCond == nil {
			exitCond = c
		} else {
			exitCond = &ram.And{L: exitCond, R: c}
		}
		post = append(post, &ram.Merge{Dst: t.rels[r.Name()], Src: nw})
		if rc := t.recents[r.Name()]; rc != nil {
			post = append(post, &ram.Merge{Dst: rc, Src: nw})
		}
		if d := t.deltas[r.Name()]; d != nil {
			post = append(post, &ram.Swap{A: d, B: nw})
			post = append(post, &ram.Clear{Rel: nw})
		} else {
			post = append(post, &ram.Clear{Rel: nw})
		}
	}
	body := append(loopBody, &ram.Exit{Cond: exitCond})
	body = append(body, post...)
	label := fmt.Sprintf("update stratum %d (%s)", s.Index, strings.Join(names, ", "))
	stmts = append(stmts, &ram.Loop{Body: &ram.Sequence{Stmts: body}, Label: label})
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
