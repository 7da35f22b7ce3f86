package verify_test

// Negative tests for the delete-program invariants: real deletable programs
// are compiled through the front end, their Delete trees are broken by hand,
// and the verifier must name the violated rule. The positive direction —
// every shipped Delete program verifies clean — is covered by
// TestPipelineInvariants over the fixture/example corpus.

import (
	"testing"

	"sti/internal/ram"
	"sti/internal/ram/verify"
)

const deletableTC = `
.decl edge(x:number, y:number)
.decl path(x:number, y:number)
.input edge
.output path
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
`

const deletableFlat = `
.decl edge(x:number, y:number)
.decl out(x:number, y:number)
.input edge
.output out
out(x, y) :- edge(x, y).
`

// findRel returns the first relation matching the predicate.
func findRel(t *testing.T, p *ram.Program, pred func(*ram.Relation) bool) *ram.Relation {
	t.Helper()
	for _, r := range p.Relations {
		if r != nil && pred(r) {
			return r
		}
	}
	t.Fatal("program has no relation matching the predicate")
	return nil
}

func assertRule(t *testing.T, p *ram.Program, rule string) {
	t.Helper()
	diags := verify.Program(p)
	for _, d := range diags {
		if d.Rule == rule {
			return
		}
	}
	t.Fatalf("verifier missed %s; got %v", rule, diags)
}

func TestBrokenDeletePrograms(t *testing.T) {
	t.Run("io-in-delete", func(t *testing.T) {
		prog, _ := translate(t, deletableTC)
		path := findRel(t, prog, func(r *ram.Relation) bool { return r.Output })
		seq := prog.Delete.(*ram.Sequence)
		seq.Stmts = append(seq.Stmts, &ram.IO{Kind: ram.IOStore, Rel: path})
		assertRule(t, prog, verify.RuleDeleteNoIO)
	})

	t.Run("write-into-base-relation", func(t *testing.T) {
		prog, _ := translate(t, deletableTC)
		path := findRel(t, prog, func(r *ram.Relation) bool { return r.Output })
		seq := prog.Delete.(*ram.Sequence)
		seq.Stmts = append(seq.Stmts, &ram.Query{
			Root: &ram.Project{Rel: path, Exprs: []ram.Expr{
				&ram.Constant{Val: 1}, &ram.Constant{Val: 2},
			}},
		})
		assertRule(t, prog, verify.RuleDeleteWrite)
	})

	// The ordering and eqrel rules guard every stratum's retraction, so
	// each case runs on the recursive and on the non-recursive program.
	for _, c := range []struct{ suffix, src string }{{"", deletableTC}, {"-flat", deletableFlat}} {
		t.Run("rederive-before-overdelete"+c.suffix, func(t *testing.T) {
			prog, _ := translate(t, c.src)
			red := findRel(t, prog, func(r *ram.Relation) bool { return r.Kind == ram.AuxRed })
			nred := findRel(t, prog, func(r *ram.Relation) bool { return r.Kind == ram.AuxRedNew })
			// A red-family write hoisted before the overdeletion makes every
			// later del-family write of the same base a violation.
			seq := prog.Delete.(*ram.Sequence)
			seq.Stmts = append([]ram.Statement{&ram.Merge{Dst: red, Src: nred}}, seq.Stmts...)
			assertRule(t, prog, verify.RuleDeleteOrder)
		})

		// The union-find has no per-pair removal: the final SUBTRACT pass
		// must never take tuples out of an eqrel relation.
		t.Run("subtract-from-eqrel"+c.suffix, func(t *testing.T) {
			prog, _ := translate(t, c.src)
			findRel(t, prog, func(r *ram.Relation) bool { return r.Output }).Rep = ram.RepEqRel
			assertRule(t, prog, verify.RuleDeleteTarget)
		})
	}
}
