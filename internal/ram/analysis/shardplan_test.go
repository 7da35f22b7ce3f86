package analysis_test

import (
	"testing"

	"sti/internal/ram"
	"sti/internal/ram/analysis"
)

// TestShardKeysTC: on transitive closure the inner scan binds edge's first
// column and the semi-naive existence check binds path fully; both relations
// (and every aux companion) should partition on column 0, the classic
// "partition by join key" plan.
func TestShardKeysTC(t *testing.T) {
	p := translate(t, tcSrc)
	keys := analysis.ShardKeys(p)
	if len(keys) != len(p.Relations) {
		t.Fatalf("got %d keys for %d relations", len(keys), len(p.Relations))
	}
	for i, rd := range p.Relations {
		switch {
		case rd.Arity == 0:
			if keys[i] != -1 {
				t.Errorf("nullary %s: key %d, want -1", rd.Name, keys[i])
			}
		case rd.Name == "edge" || rd.Name == "path":
			if keys[i] != 0 {
				t.Errorf("%s: key %d, want 0", rd.Name, keys[i])
			}
		}
		// Aux companions must inherit their base's key exactly.
		if rd.IsAux() && rd.Arity > 0 && p.Relations[rd.BaseID].Rep != ram.RepEqRel {
			if keys[i] != keys[rd.BaseID] {
				t.Errorf("aux %s: key %d, base %s has %d",
					rd.Name, keys[i], p.Relations[rd.BaseID].Name, keys[rd.BaseID])
			}
		}
	}
}

// TestShardKeysSecondColumn: when every search binds the second column, the
// vote must move off column 0.
func TestShardKeysSecondColumn(t *testing.T) {
	src := `
.decl edge(x:number, y:number)
.decl hit(y:number)
.decl out(x:number, y:number)
.input edge
.input hit
.output out
out(x, y) :- hit(y), edge(x, y).
`
	p := translate(t, src)
	edge := relByName(t, p, "edge")
	keys := analysis.ShardKeys(p)
	if keys[edge.ID] != 1 {
		t.Fatalf("edge key = %d, want 1 (joined on its second column)", keys[edge.ID])
	}
}

// TestShardKeysEqrel: eqrel relations carry no plan; their btree aux
// companions default to column 0.
func TestShardKeysEqrel(t *testing.T) {
	src := `
.decl edge(x:number, y:number)
.decl eq(x:number, y:number) eqrel
.input edge
.output eq
eq(x, y) :- edge(x, y).
eq(x, z) :- eq(x, y), edge(y, z).
`
	p := translate(t, src)
	keys := analysis.ShardKeys(p)
	for i, rd := range p.Relations {
		if rd.Rep == ram.RepEqRel && keys[i] != -1 {
			t.Errorf("eqrel %s: key %d, want -1", rd.Name, keys[i])
		}
		if rd.IsAux() && rd.Rep != ram.RepEqRel && p.Relations[rd.BaseID].Rep == ram.RepEqRel && keys[i] != 0 {
			t.Errorf("eqrel aux %s: key %d, want 0", rd.Name, keys[i])
		}
	}
}

// TestStampShardKeys: ast2ram stamps the plan 1-based onto the
// declarations; ShardCol round-trips back to the 0-based column.
func TestStampShardKeys(t *testing.T) {
	p := translate(t, tcSrc)
	keys := analysis.ShardKeys(p)
	for i, rd := range p.Relations {
		want := keys[i]
		if rd.ShardCol() != want {
			t.Errorf("%s: stamped ShardCol %d, analysis says %d", rd.Name, rd.ShardCol(), want)
		}
		if want == -1 && rd.ShardKey != 0 {
			t.Errorf("%s: unshardable but ShardKey %d", rd.Name, rd.ShardKey)
		}
	}
}
