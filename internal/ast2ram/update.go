package ast2ram

import (
	"fmt"

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
//     subst points that atom at recent_X (the fresh tuples of a lower
//     stratum), which drives the join, while all other atoms read the full
//     relations. Since insert-monotone programs only ever add tuples, every
//     new derivation has at least one fresh premise, and the fresh premise
//     is either a lower-stratum tuple (covered by a restart variant) or an
//     in-stratum tuple (covered by delta seeding and the fixpoint loop
//     below).
//   - Recursive strata then rerun Main's semi-naive loop (the same
//     deltaVariants through the same fixpoint builder) with delta_R seeded
//     from recent_R and the restart output rather than the full relation,
//     and with recent_R as the loop's extra tracker.
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
	rules, inStratum := stratumRules(s)
	if len(rules) == 0 {
		return nil, nil // pure EDB stratum: batch facts arrive via recent_R
	}
	recent := t.aux[ram.AuxRecent]

	// restart emits one rule's restart variants.
	var stmts []ram.Statement
	restart := func(c *ast.Clause, target, guard *ram.Relation) error {
		full := version{target: target, guard: guard}
		var vs []version
		for i, l := range c.Body {
			at, ok := l.(*ast.Atom)
			if !ok || inStratum[at.Name] {
				continue
			}
			rc := recent[at.Name]
			if rc == nil {
				// An untrackable (eqrel) premise: re-derive from the full
				// relations, deduplicated by the guard.
				vs = nil
				break
			}
			v := full
			v.subst = map[int]*ram.Relation{i: rc}
			vs = append(vs, v)
		}
		if len(vs) == 0 {
			vs = []version{full} // also a rule without out-of-stratum atoms
		}
		return t.emit(&stmts, c, vs...)
	}

	if !s.Recursive {
		for _, ru := range rules {
			head := t.rels[ru.rel.Name()]
			var err error
			if rc := recent[ru.rel.Name()]; rc != nil {
				err = restart(ru.clause, rc, head)
			} else {
				// EqRel head: project straight into the union-find (inserts
				// are idempotent and nothing downstream tracks its recents).
				err = restart(ru.clause, head, nil)
			}
			if err != nil {
				return nil, err
			}
		}
		// Fold the fresh tuples into the base relations; recent_R keeps
		// them visible to downstream sections until the final clears.
		for _, r := range s.Rels {
			if rc := recent[r.Name()]; rc != nil {
				stmts = append(stmts, &ram.Merge{Dst: t.rels[r.Name()], Src: rc})
			}
		}
		return &ram.Sequence{Stmts: stmts}, nil
	}

	// Recursive stratum: restart into new_R, fold into base/recent/delta,
	// then rerun the semi-naive loop seeded from the deltas only. A rule
	// with in-stratum atoms still needs restart variants for its
	// out-of-stratum premises: old in-stratum ⨝ fresh lower-stratum pairs
	// never pass through any delta. Only a rule whose every premise lies in
	// the stratum is left to the loop.
	for _, ru := range rules {
		in, out := false, false
		for _, l := range ru.clause.Body {
			if at, ok := l.(*ast.Atom); ok {
				in = in || inStratum[at.Name]
				out = out || !inStratum[at.Name]
			}
		}
		if in && !out {
			continue
		}
		if err := restart(ru.clause, t.aux[ram.AuxNew][ru.rel.Name()], t.rels[ru.rel.Name()]); err != nil {
			return nil, err
		}
	}
	lrs := loopRels(s, t.rels, t.aux[ram.AuxDelta], t.aux[ram.AuxNew], recent)
	for _, lr := range lrs {
		stmts = append(stmts, &ram.Merge{Dst: lr.acc, Src: lr.new})
		if lr.extra != nil {
			stmts = append(stmts, &ram.Merge{Dst: lr.extra, Src: lr.new})
			if lr.delta != nil {
				// Seed the delta with everything fresh so far: staged batch
				// facts and the restart output, but *not* the old fixpoint.
				stmts = append(stmts, &ram.Merge{Dst: lr.delta, Src: lr.extra})
			}
		}
		stmts = append(stmts, &ram.Clear{Rel: lr.new})
	}

	var body []ram.Statement
	for _, ru := range rules {
		qs, err := t.deltaVariants(ru, inStratum)
		if err != nil {
			return nil, err
		}
		body = append(body, qs...)
	}
	stmts = append(stmts, t.fixpoint(fmt.Sprintf("update stratum %d", s.Index), body, lrs))
	return &ram.Sequence{Stmts: append(stmts, clearScratch(lrs)...)}, nil
}
