package analysis

import (
	"fmt"

	"sti/internal/ast"
	"sti/internal/sema"
)

// Deletable decides whether a Delete program (overdelete/rederive for every
// stratum) is sound for p, returning the first obstruction as a reason string when it is not.
//
// Three obstructions exist:
//
//   - Non-monotone rules. Negation and aggregates make retraction
//     non-antitone: removing a fact can *add* derived tuples, which DRed
//     does not model. This subsumes the Update gate — a deletable
//     program always has an update program.
//   - EqRel relations. The union-find closes pairs no insert ever mentioned
//     and has no per-pair removal, so overdeletion cannot be expressed over
//     it.
//   - Input-and-derived relations. A tuple of such a relation may be held up
//     both by an EDB assertion and by rules; retraction would need to
//     attribute each tuple to its origin, which the EDB/IDB split of the
//     delete program does not track.
func Deletable(p *sema.Program) (bool, string) {
	if m := Monotone(p); !m.Monotone() {
		return false, m.Reason()
	}
	for _, r := range p.RelList {
		if r.Decl.Rep == ast.RepEqRel {
			return false, fmt.Sprintf("relation %q is an eqrel: the union-find cannot retract pairs", r.Name())
		}
		if r.Input && len(r.Clauses) > 0 {
			return false, fmt.Sprintf("relation %q is both input and derived: retraction cannot attribute its tuples", r.Name())
		}
	}
	return true, ""
}
