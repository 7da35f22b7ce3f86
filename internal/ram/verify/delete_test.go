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

// findStmt walks the delete tree and returns the first statement the
// predicate accepts.
func findStmt(t *testing.T, s ram.Statement, pred func(ram.Statement) bool) ram.Statement {
	t.Helper()
	var found ram.Statement
	var walk func(ram.Statement)
	walk = func(s ram.Statement) {
		if s == nil || found != nil {
			return
		}
		if pred(s) {
			found = s
			return
		}
		switch s := s.(type) {
		case *ram.Sequence:
			for _, sub := range s.Stmts {
				walk(sub)
			}
		case *ram.Loop:
			walk(s.Body)
		case *ram.LogTimer:
			walk(s.Stmt)
		}
	}
	walk(s)
	if found == nil {
		t.Fatal("delete program has no statement matching the predicate")
	}
	return found
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

	t.Run("rederive-before-overdelete", func(t *testing.T) {
		prog, _ := translate(t, deletableTC)
		red := findRel(t, prog, func(r *ram.Relation) bool { return r.Kind == ram.AuxRed })
		nred := findRel(t, prog, func(r *ram.Relation) bool { return r.Kind == ram.AuxRedNew })
		// A red-family write hoisted before the overdeletion fixpoint makes
		// every later del-family write of the same base a violation.
		seq := prog.Delete.(*ram.Sequence)
		seq.Stmts = append([]ram.Statement{&ram.Merge{Dst: red, Src: nred}}, seq.Stmts...)
		assertRule(t, prog, verify.RuleDeleteOrder)
	})

	t.Run("count-delete-from-non-count-buffer", func(t *testing.T) {
		prog, _ := translate(t, deletableFlat)
		cd := findStmt(t, prog.Delete, func(s ram.Statement) bool {
			_, ok := s.(*ram.CountDelete)
			return ok
		}).(*ram.CountDelete)
		cd.Src = cd.Gone // a del tracker carries no multiplicities
		assertRule(t, prog, verify.RuleCountShape)
	})

	t.Run("count-delete-into-uncounted-relation", func(t *testing.T) {
		prog, _ := translate(t, deletableFlat)
		edge := findRel(t, prog, func(r *ram.Relation) bool { return r.Input })
		cd := findStmt(t, prog.Delete, func(s ram.Statement) bool {
			_, ok := s.(*ram.CountDelete)
			return ok
		}).(*ram.CountDelete)
		cd.Dst = edge // EDB relations maintain no support counts
		assertRule(t, prog, verify.RuleCountShape)
	})

	// The union-find has no per-pair removal: the final SUBTRACT pass and
	// count propagation must never take tuples out of an eqrel relation.
	t.Run("subtract-from-eqrel", func(t *testing.T) {
		prog, _ := translate(t, deletableTC)
		findRel(t, prog, func(r *ram.Relation) bool { return r.Output }).Rep = ram.RepEqRel
		assertRule(t, prog, verify.RuleDeleteTarget)
	})

	t.Run("count-delete-from-eqrel", func(t *testing.T) {
		prog, _ := translate(t, deletableFlat)
		out := findRel(t, prog, func(r *ram.Relation) bool { return r.Output })
		out.Rep = ram.RepEqRel
		// Leave only the count propagation targeting out.
		prog.Delete = findStmt(t, prog.Delete, func(s ram.Statement) bool {
			cd, ok := s.(*ram.CountDelete)
			return ok && cd.Dst == out
		})
		assertRule(t, prog, verify.RuleDeleteTarget)
	})
}
