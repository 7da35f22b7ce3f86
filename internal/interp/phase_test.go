package interp

import (
	"strings"
	"testing"

	"sti/internal/relation"
	"sti/internal/tuple"
	"sti/internal/value"
)

const phaseTC = `
.decl edge(x:number, y:number)
.decl path(x:number, y:number)
.input edge
.output path
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
`

func n32(i int) value.Value { return value.FromInt(int32(i)) }

// TestPhaseMachine pins the Load → Eval → Store state machine and its
// error messages.
func TestPhaseMachine(t *testing.T) {
	rp, st := compileSrc(t, phaseTC)
	eng := New(rp, st, DefaultConfig())
	if eng.Phase() != PhaseNew {
		t.Fatalf("fresh phase = %s", eng.Phase())
	}
	io := NewMemIO()
	io.Add("edge", tuple.Tuple{n32(1), n32(2)})
	io.Add("edge", tuple.Tuple{n32(2), n32(3)})
	if err := eng.Load(io); err != nil {
		t.Fatal(err)
	}
	if eng.Phase() != PhaseLoaded {
		t.Fatalf("phase after Load = %s", eng.Phase())
	}
	// Run and a second Load are both phase errors now.
	if err := eng.Run(io); err == nil || !strings.Contains(err.Error(), "phase loaded") {
		t.Fatalf("Run after Load: %v", err)
	}
	if err := eng.Load(io); err == nil {
		t.Fatal("Load twice must fail")
	}
	// Store before Eval is a phase error.
	if err := eng.Store(io); err == nil || !strings.Contains(err.Error(), "want ready") {
		t.Fatalf("Store before Eval: %v", err)
	}
	if err := eng.Eval(); err != nil {
		t.Fatal(err)
	}
	if eng.Phase() != PhaseReady {
		t.Fatalf("phase after Eval = %s", eng.Phase())
	}
	if err := eng.Eval(); err == nil {
		t.Fatal("Eval twice must fail")
	}
	// Store is repeatable once ready.
	for i := 0; i < 2; i++ {
		if err := eng.Store(io); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(io.Out["path"]); got != 3 {
		t.Fatalf("stored path rows = %d", got)
	}
	// Reset clears everything outside its keep set, aux relations included,
	// and Eval rebuilds the rest from what it kept.
	edge := eng.Relation("edge")
	eng.Reset(func(r *relation.Relation) bool { return r == edge })
	for _, r := range eng.rels {
		if want := map[bool]int{true: 2, false: 0}[r == edge]; r.Size() != want {
			t.Fatalf("after Reset keeping edge, %s holds %d tuples, want %d", r.Name, r.Size(), want)
		}
	}
	if err := eng.Eval(); err != nil {
		t.Fatal(err)
	}
	if n := eng.Relation("path").Size(); n != 3 {
		t.Fatalf("Eval after a keeping Reset derived %d path tuples, want 3", n)
	}
	// Reset(nil) returns to new; the engine is reusable.
	eng.Reset(nil)
	if eng.Phase() != PhaseNew {
		t.Fatalf("phase after Reset = %s", eng.Phase())
	}
	if ts, err := eng.Tuples("path"); err != nil || len(ts) != 0 {
		t.Fatalf("Reset left tuples: %v %v", ts, err)
	}
	if err := eng.Run(io); err != nil {
		t.Fatal(err)
	}
	if ts, _ := eng.Tuples("path"); len(ts) != 3 {
		t.Fatalf("rerun path = %v", ts)
	}
}

// TestEvalUpdatePhaseErrors pins the EvalUpdate preconditions.
func TestEvalUpdatePhaseErrors(t *testing.T) {
	rp, st := compileSrc(t, phaseTC)
	eng := New(rp, st, DefaultConfig())
	if err := eng.EvalUpdate(); err == nil || !strings.Contains(err.Error(), "want ready") {
		t.Fatalf("EvalUpdate before Eval: %v", err)
	}
	if !eng.Incremental() {
		t.Fatal("TC program should be insert-monotone")
	}
	// A non-monotone program reports no update entry point.
	rpNeg, stNeg := compileSrc(t, `
.decl a(x:number)
.decl b(x:number)
.decl c(x:number)
c(x) :- a(x), !b(x).
`)
	engNeg := New(rpNeg, stNeg, DefaultConfig())
	if engNeg.Incremental() {
		t.Fatal("negation must disable the update entry point")
	}
	if err := engNeg.Run(NewMemIO()); err != nil {
		t.Fatal(err)
	}
	if err := engNeg.EvalUpdate(); err == nil || !strings.Contains(err.Error(), "update entry point") {
		t.Fatalf("EvalUpdate on non-monotone program: %v", err)
	}
}

// TestInsertFactsEvalUpdate drives the incremental path at the engine
// level: staged fresh facts plus EvalUpdate must land exactly where a
// from-scratch run would.
func TestInsertFactsEvalUpdate(t *testing.T) {
	rp, st := compileSrc(t, phaseTC)
	eng := New(rp, st, DefaultConfig())
	if err := eng.Run(NewMemIO()); err != nil {
		t.Fatal(err)
	}
	added, err := eng.InsertFacts("edge", []tuple.Tuple{
		{n32(1), n32(2)}, {n32(2), n32(3)}, {n32(1), n32(2)}, // dup
	})
	if err != nil || added != 2 {
		t.Fatalf("InsertFacts added=%d err=%v", added, err)
	}
	if err := eng.EvalUpdate(); err != nil {
		t.Fatal(err)
	}
	if ts, _ := eng.Tuples("path"); len(ts) != 3 {
		t.Fatalf("path after update = %v", ts)
	}
	// Arity errors are reported.
	if _, err := eng.InsertFacts("edge", []tuple.Tuple{{n32(1)}}); err == nil {
		t.Fatal("arity mismatch must fail")
	}
	if _, err := eng.InsertFacts("nosuch", nil); err == nil {
		t.Fatal("unknown relation must fail")
	}
}

// TestTuplesDeterministicOrder pins the documented contract: Tuples
// returns primary-index order, independent of insertion order.
func TestTuplesDeterministicOrder(t *testing.T) {
	facts := [][2]int{{5, 6}, {1, 2}, {3, 4}, {2, 3}, {4, 5}, {1, 4}}
	build := func(reverse bool) []tuple.Tuple {
		rp, st := compileSrc(t, phaseTC)
		eng := New(rp, st, DefaultConfig())
		io := NewMemIO()
		order := facts
		if reverse {
			order = make([][2]int, len(facts))
			for i, f := range facts {
				order[len(facts)-1-i] = f
			}
		}
		for _, f := range order {
			io.Add("edge", tuple.Tuple{n32(f[0]), n32(f[1])})
		}
		if err := eng.Run(io); err != nil {
			t.Fatal(err)
		}
		ts, err := eng.Tuples("path")
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
	a, b := build(false), build(true)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("sizes: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !tuple.Equal(a[i], b[i]) {
			t.Fatalf("order diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
