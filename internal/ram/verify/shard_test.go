package verify

import (
	"testing"

	"sti/internal/ram"
)

// shardProgram hand-builds a program with a stamped shard plan: edge and
// path partition on column 0, and path has a delta companion with the same
// plan, swapped and merged the way semi-naive evaluation does.
func shardProgram() *ram.Program {
	p := tcProgram()
	edge, path := p.Relations[0], p.Relations[1]
	edge.ShardKey = 1
	path.ShardKey = 1
	delta := rel(2, "delta_path", 2)
	delta.Kind = ram.AuxDelta
	delta.BaseID = path.ID
	delta.ShardKey = 1
	p.Relations = append(p.Relations, delta)
	seq := p.Main.(*ram.Sequence)
	seq.Stmts = append(seq.Stmts,
		&ram.Swap{A: path, B: delta},
		&ram.Merge{Dst: path, Src: delta},
	)
	return p
}

func TestShardPlanVerifiesClean(t *testing.T) {
	if diags := Program(shardProgram()); len(diags) > 0 {
		t.Fatalf("unexpected diagnostics: %v", diags)
	}
}

// TestShardLocalWrites: every way a shard plan can be malformed yields a
// shard-local-writes diagnostic.
func TestShardLocalWrites(t *testing.T) {
	tests := []struct {
		name  string
		build func() *ram.Program
	}{
		{
			name: "key out of range",
			build: func() *ram.Program {
				p := shardProgram()
				p.Relations[0].ShardKey = 3 // edge has arity 2
				return p
			},
		},
		{
			name: "negative key",
			build: func() *ram.Program {
				p := shardProgram()
				p.Relations[0].ShardKey = -1
				return p
			},
		},
		{
			name: "nullary relation with plan",
			build: func() *ram.Program {
				p := shardProgram()
				flag := rel(3, "flag", 0)
				flag.ShardKey = 1
				p.Relations = append(p.Relations, flag)
				return p
			},
		},
		{
			name: "eqrel relation with plan",
			build: func() *ram.Program {
				p := shardProgram()
				eq := rel(3, "eq", 2)
				eq.Rep = ram.RepEqRel
				eq.ShardKey = 1
				p.Relations = append(p.Relations, eq)
				return p
			},
		},
		{
			name: "aux key differs from base",
			build: func() *ram.Program {
				p := shardProgram()
				p.Relations[2].ShardKey = 2 // delta_path off path's column
				return p
			},
		},
		{
			name: "aux unstamped under stamped base",
			build: func() *ram.Program {
				p := shardProgram()
				p.Relations[2].ShardKey = 0
				return p
			},
		},
		{
			name: "swap across keys",
			build: func() *ram.Program {
				p := shardProgram()
				// Give both operands internally-valid but different plans;
				// the statement-level check must still fire.
				other := rel(3, "other", 2)
				other.ShardKey = 2
				p.Relations = append(p.Relations, other)
				seq := p.Main.(*ram.Sequence)
				seq.Stmts = append(seq.Stmts, &ram.Swap{A: p.Relations[0], B: other})
				return p
			},
		},
		{
			name: "merge across keys",
			build: func() *ram.Program {
				p := shardProgram()
				other := rel(3, "other", 2)
				other.ShardKey = 2
				p.Relations = append(p.Relations, other)
				seq := p.Main.(*ram.Sequence)
				seq.Stmts = append(seq.Stmts, &ram.Merge{Dst: p.Relations[0], Src: other})
				return p
			},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			diags := Program(tc.build())
			found := false
			for _, d := range diags {
				if d.Rule == RuleShardLocal {
					found = true
				} else {
					t.Errorf("unexpected diagnostic %s: %s", d.Rule, d.Msg)
				}
			}
			if !found {
				t.Fatalf("no %s diagnostic; got %v", RuleShardLocal, diags)
			}
		})
	}
}
