package ramopt

import (
	"errors"
	"testing"

	"sti/internal/ram"
	"sti/internal/ram/verify"
	"sti/internal/symtab"
)

// TestDebugVerifiesAfterEachPass: with the verifier armed, a pass that
// breaks an invariant is caught right after it ran and the *verify.Error
// stage names it — not the end of the pipeline.
func TestDebugVerifiesAfterEachPass(t *testing.T) {
	saved := passes
	var ranAfter bool
	passes = []pass{
		saved[0],
		{name: "break-main", run: func(p *ram.Program, _ *symtab.Table) { p.Main = nil }},
		{name: "after", run: func(*ram.Program, *symtab.Table) { ranAfter = true }},
	}
	was := verify.Debugging()
	verify.SetDebug(true)
	defer func() {
		passes = saved
		verify.SetDebug(was)
		err, _ := recover().(error)
		var verr *verify.Error
		if !errors.As(err, &verr) {
			t.Fatalf("want a *verify.Error panic, got %v", err)
		}
		if verr.Stage != "ramopt/break-main" {
			t.Fatalf("stage = %q, want ramopt/break-main", verr.Stage)
		}
		if ranAfter {
			t.Fatal("pipeline continued past the failing pass")
		}
	}()
	Optimize(&ram.Program{Main: &ram.Sequence{}}, symtab.New(), All())
}
