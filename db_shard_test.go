package sti

import "testing"

// TestShardedRun: a one-shot Run with WithShards matches the unsharded run
// byte for byte.
func TestShardedRun(t *testing.T) {
	p := tcProgram(t, "btree")
	edges := [][2]int{}
	for i := 0; i < 30; i++ {
		edges = append(edges, [2]int{i, i + 1})
		edges = append(edges, [2]int{i, (i * 7) % 30})
	}
	want := runUnion(t, p, edges)

	in := p.NewInput()
	for _, e := range edges {
		in.Add("edge", e[0], e[1])
	}
	res, err := p.Run(in, WithShards(4))
	if err != nil {
		t.Fatalf("sharded run: %v", err)
	}
	got := res.Rows("path")
	if len(got) != len(want) {
		t.Fatalf("sharded run: %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("row %d differs: %v vs %v", i, got[i], want[i])
			}
		}
	}
}

// TestShardedDatabaseStaysIncremental: a database opened with WithShards
// absorbs insert batches through the update entry point and mixed batches
// through the delete entry point, over the same sharded relations, and
// stays equal to a one-shot run after every batch.
func TestShardedDatabaseStaysIncremental(t *testing.T) {
	p := tcProgram(t, "btree")
	db, err := p.Open(WithShards(4))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()

	edges := chainEdges(20)
	applyEdges(t, db, edges)
	checkEquivalent(t, db, p, edges, "sharded apply")
	checkIncremental(t, db, "sharded apply")

	b := db.NewBatch()
	b.Add("edge", 50, 51)
	b.Delete("edge", 0, 1)
	b.Delete("edge", 10, 11)
	if err := db.Apply(b); err != nil {
		t.Fatalf("apply 2: %v", err)
	}
	// The net edge set: the chain without 0->1 and 10->11, plus 50->51.
	net := append(append([][2]int{}, edges[1:10]...), edges[11:]...)
	net = append(net, [2]int{50, 51})
	checkEquivalent(t, db, p, net, "sharded delete")
	checkIncremental(t, db, "sharded delete")
	if st := db.Stats(); st.AppliesIncremental != 2 || st.Applies != 2 {
		t.Fatalf("incremental=%d applies=%d, want 2/2", st.AppliesIncremental, st.Applies)
	}
}

// TestUnshardedDatabaseStaysIncremental: an insert batch on a database
// opened without WithShards takes the update entry point too.
func TestUnshardedDatabaseStaysIncremental(t *testing.T) {
	p := tcProgram(t, "btree")
	db, err := p.Open()
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	b := db.NewBatch().Add("edge", 1, 2).Add("edge", 2, 3)
	if err := db.Apply(b); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if st := db.Stats(); st.AppliesIncremental != 1 {
		t.Fatalf("incremental applies = %d, want 1", st.AppliesIncremental)
	}
}
