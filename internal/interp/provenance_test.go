package interp

import (
	"reflect"
	"testing"

	"sti/internal/tuple"
	"sti/internal/value"
)

func TestExplainTransitiveClosure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Provenance = true
	eng, _ := run(t, tcSrc, chainFacts(4), cfg)

	// path(0,4) derives through path(0,3), which derives through path(0,2)...
	proof, err := eng.Explain("path", tuple.Tuple{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if proof.Rule == "" {
		t.Fatal("derived tuple explained as a fact")
	}
	if len(proof.Premises) != 2 {
		t.Fatalf("premises = %d", len(proof.Premises))
	}
	// Depth: the proof chain must bottom out at edge facts.
	depth := 0
	var walk func(p *Proof, d int)
	var leaves int
	walk = func(p *Proof, d int) {
		if d > depth {
			depth = d
		}
		if len(p.Premises) == 0 {
			if p.Rule != "" {
				t.Fatalf("leaf with rule %q", p.Rule)
			}
			if p.Relation != "edge" {
				t.Fatalf("leaf in relation %s", p.Relation)
			}
			leaves++
		}
		for _, prem := range p.Premises {
			walk(prem, d+1)
		}
	}
	walk(proof, 0)
	if depth < 3 {
		t.Fatalf("proof too shallow (%d)", depth)
	}
	if leaves < 4 {
		t.Fatalf("expected all four edges as leaves, saw %d", leaves)
	}
}

func TestExplainErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Provenance = true
	eng, _ := run(t, tcSrc, chainFacts(3), cfg)
	if _, err := eng.Explain("path", tuple.Tuple{3, 0}); err == nil {
		t.Fatal("underivable tuple explained")
	}
	if _, err := eng.Explain("nosuch", tuple.Tuple{1}); err == nil {
		t.Fatal("unknown relation explained")
	}
	// Without provenance mode, Explain must refuse.
	eng2, _ := run(t, tcSrc, chainFacts(3), DefaultConfig())
	if _, err := eng2.Explain("path", tuple.Tuple{0, 1}); err == nil {
		t.Fatal("Explain worked without provenance mode")
	}
}

func TestExplainFactAndProgramFact(t *testing.T) {
	src := `
.decl seed(x:number)
.decl out(x:number)
seed(7).
out(y) :- seed(x), y = x + 1.
`
	cfg := DefaultConfig()
	cfg.Provenance = true
	eng, _ := run(t, src, nil, cfg)
	proof, err := eng.Explain("out", tuple.Tuple{8})
	if err != nil {
		t.Fatal(err)
	}
	if len(proof.Premises) != 1 || proof.Premises[0].Relation != "seed" {
		t.Fatalf("premises: %v", proof.Premises)
	}
	// The program fact seed(7) has its own (empty-premise) derivation.
	leaf := proof.Premises[0]
	if value.AsInt(leaf.Tuple[0]) != 7 {
		t.Fatalf("leaf tuple %v", leaf.Tuple)
	}
	if len(leaf.Premises) != 0 {
		t.Fatalf("fact has %d premises", len(leaf.Premises))
	}
}

func TestProvenanceMatchesPlainResults(t *testing.T) {
	facts := chainFacts(12)
	plain, _ := run(t, tcSrc, facts, DefaultConfig())
	cfg := DefaultConfig()
	cfg.Provenance = true
	prov, _ := run(t, tcSrc, facts, cfg)
	a := tuplesOf(t, plain, "path")
	b := tuplesOf(t, prov, "path")
	if len(a) != len(b) {
		t.Fatalf("provenance mode changed results: %d vs %d", len(a), len(b))
	}
	// Every derived tuple is explainable.
	for _, tp := range b {
		if _, err := prov.Explain("path", tp); err != nil {
			t.Fatalf("cannot explain %v: %v", tp, err)
		}
	}
}

// TestProvenanceKeepsFusion: provenance mode no longer switches condition
// fusion off — constraints are not premises, and the existence checks that
// are stay ordinary nodes — so the proofs are the same with and without it.
func TestProvenanceKeepsFusion(t *testing.T) {
	src := `
.decl n(x:number)
.decl ok(x:number)
.decl out(x:number, y:number)
.input n
.input ok
out(x, y) :- n(x), n(y), y > x, (y - x) % 3 = 0, ok(y), x != 4.
`
	facts := map[string][]tuple.Tuple{}
	for i := 0; i < 12; i++ {
		facts["n"] = append(facts["n"], tuple.Tuple{value.Value(i)})
		if i%2 == 1 {
			facts["ok"] = append(facts["ok"], tuple.Tuple{value.Value(i)})
		}
	}
	fused := DefaultConfig()
	fused.Provenance = true
	if !fused.normalize().FusedFilters {
		t.Fatal("provenance mode still disables condition fusion")
	}
	unfused := fused
	unfused.FusedFilters = false
	a, _ := run(t, src, facts, fused)
	b, _ := run(t, src, facts, unfused)
	outs := tuplesOf(t, a, "out")
	if len(outs) == 0 || len(outs) != len(tuplesOf(t, b, "out")) {
		t.Fatalf("results differ: %d vs %d", len(outs), len(tuplesOf(t, b, "out")))
	}
	for _, tp := range outs {
		pa, err := a.Explain("out", tp)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := b.Explain("out", tp)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pa, pb) || len(pa.Premises) != 3 {
			t.Fatalf("proof of %v differs or lacks a premise: fused %d premises, unfused %d", tp, len(pa.Premises), len(pb.Premises))
		}
	}
}
